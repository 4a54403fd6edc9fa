// Error handling primitives shared across the library.
//
// The library reports contract violations and unrecoverable numerical
// conditions via exceptions derived from `aspe::Error`, so callers can
// distinguish library failures from standard-library ones.
#pragma once

#include <stdexcept>
#include <string>
#include <string_view>

namespace aspe {

/// Base class for all errors thrown by the aspe library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown when a caller violates a documented precondition
/// (dimension mismatch, empty input, out-of-range parameter, ...).
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

/// Thrown when a numerical routine cannot proceed
/// (singular matrix, rank-deficient system, non-SPD matrix, ...).
class NumericalError : public Error {
 public:
  explicit NumericalError(const std::string& what) : Error(what) {}
};

namespace detail {
/// Out-of-line failure path of `require`: builds the message and throws.
[[noreturn]] [[gnu::cold]] void throw_invalid_argument(std::string_view msg);
}  // namespace detail

/// Require `cond`; throw InvalidArgument with `msg` otherwise. A passing
/// check only tests `cond`: the message is a view, copied into a string on
/// the cold failure path alone, so checks in hot loops never allocate.
inline void require(bool cond, std::string_view msg) {
  if (!cond) [[unlikely]] detail::throw_invalid_argument(msg);
}

}  // namespace aspe
