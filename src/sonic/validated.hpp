// The one configuration check behind the station's and the phone's
// constructors: a Params whose validate() lists errors is refused whole.
#pragma once

#include <stdexcept>
#include <string>

namespace sonic::core {

// Returns `params` when params.validate() is empty; otherwise throws
// std::invalid_argument headed "invalid <what>:", one error per line.
template <typename Params>
Params validated(Params params, const char* what) {
  const auto errors = params.validate();
  if (!errors.empty()) {
    std::string msg = std::string("invalid ") + what + ":";
    for (const auto& e : errors) msg += "\n  - " + e;
    throw std::invalid_argument(msg);
  }
  return params;
}

}  // namespace sonic::core
