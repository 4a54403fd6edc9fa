#include "common/error.hpp"

namespace aspe::detail {

void throw_invalid_argument(std::string_view msg) {
  throw InvalidArgument(std::string(msg));
}

}  // namespace aspe::detail
