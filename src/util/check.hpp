// Contract-checking macros for simulator invariants.
//
// The cycle-accurate counters feed the back-annotated energy model, so a
// silent counter drift or credit underflow corrupts every downstream figure.
// NOCW_CHECK* are therefore *always on*, in every build type: they guard
// per-batch invariants (flit conservation, credit ranges, unit sanity) and
// the hot per-element paths (FIFO push/pop, tensor indexing) alike, where
// the cost is negligible next to the cost of a wrong answer.
//
// A failed check throws nocw::CheckError with the expression text and, for
// the binary forms, both operand values:
//
//   NOCW_CHECK_GE(credits, 0);   // "credits >= 0 (-1 vs 0)"
//
// CheckError derives from std::logic_error, so callers that used to throw or
// catch std::logic_error keep working unchanged.
#pragma once

#include <sstream>
#include <stdexcept>
#include <string>

namespace nocw {

/// Thrown when a NOCW_CHECK* invariant is violated.
class CheckError : public std::logic_error {
 public:
  using std::logic_error::logic_error;
};

namespace check_detail {

[[noreturn]] inline void fail(const char* file, int line, const char* expr,
                              const std::string& operands) {
  std::ostringstream os;
  os << file << ':' << line << ": check failed: " << expr;
  if (!operands.empty()) os << " (" << operands << ')';
  throw CheckError(os.str());
}

template <typename A, typename B>
std::string describe(const A& a, const B& b) {
  std::ostringstream os;
  os << a << " vs " << b;
  return os.str();
}

}  // namespace check_detail
}  // namespace nocw

/// Always-on invariant check; throws nocw::CheckError when `cond` is false.
#define NOCW_CHECK(cond)                                                   \
  do {                                                                     \
    if (!(cond)) {                                                         \
      ::nocw::check_detail::fail(__FILE__, __LINE__, #cond, std::string{}); \
    }                                                                      \
  } while (false)

// Binary comparison form: evaluates each operand exactly once and captures
// both values in the failure message.
#define NOCW_CHECK_OP_(op, a, b)                                           \
  do {                                                                     \
    const auto& nocw_check_a_ = (a);                                       \
    const auto& nocw_check_b_ = (b);                                       \
    if (!(nocw_check_a_ op nocw_check_b_)) {                               \
      ::nocw::check_detail::fail(                                          \
          __FILE__, __LINE__, #a " " #op " " #b,                           \
          ::nocw::check_detail::describe(nocw_check_a_, nocw_check_b_));   \
    }                                                                      \
  } while (false)

#define NOCW_CHECK_EQ(a, b) NOCW_CHECK_OP_(==, a, b)
#define NOCW_CHECK_NE(a, b) NOCW_CHECK_OP_(!=, a, b)
#define NOCW_CHECK_LT(a, b) NOCW_CHECK_OP_(<, a, b)
#define NOCW_CHECK_LE(a, b) NOCW_CHECK_OP_(<=, a, b)
#define NOCW_CHECK_GT(a, b) NOCW_CHECK_OP_(>, a, b)
#define NOCW_CHECK_GE(a, b) NOCW_CHECK_OP_(>=, a, b)
