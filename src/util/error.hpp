#pragma once
/// \file error.hpp
/// Error handling helpers: setup-time contract checks throw; hot-loop
/// invariants compile away in release builds.

#include <stdexcept>
#include <string>

namespace bookleaf::util {

/// Thrown when a user-facing precondition is violated (bad input deck,
/// invalid mesh request, inconsistent configuration).
class Error : public std::runtime_error {
public:
    explicit Error(const std::string& what) : std::runtime_error(what) {}
};

/// Check a setup-time precondition; throws util::Error on failure.
/// Not for use inside hot kernels (those use BL_ASSERT).
inline void require(bool cond, const std::string& msg) {
    if (!cond) throw Error(msg);
}
/// As above for a literal message, which builds no string unless the
/// check fails (set-up loops check every mesh entity).
inline void require(bool cond, const char* msg) {
    if (!cond) throw Error(msg);
}

} // namespace bookleaf::util

/// Debug-only invariant check for hot loops. Mirrors assert() but keeps a
/// project-local spelling so it can be grepped / redefined centrally.
#ifndef NDEBUG
#include <cassert>
#define BL_ASSERT(cond) assert(cond)
#else
#define BL_ASSERT(cond) ((void)0)
#endif
