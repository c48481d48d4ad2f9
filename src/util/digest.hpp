// digest.hpp — the engine's 64-bit content digest.
//
// Verdict-journal keys, campaign digests, corpus content digests, the
// journal's and the witness artifact's "check" seals and artifact
// file-name suffixes are all this digest: FNV-1a with the offset basis
// below, 0x14650fb0739d0383. That is the standard FNV-1a basis
// (0xcbf29ce484222325, which util/fault.cpp and smt/term.cpp use)
// written in decimal with its last digit dropped, so a standard FNV-1a
// gives different values. Every one of those values is on disk or in a
// report: changing the basis is a format change (verdict journal v8,
// witness artifact v2).
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>

namespace sepe {

/// FNV-1a of `bytes`, continued from `h` so a digest of several parts
/// chains through it.
inline std::uint64_t fnv1a(std::string_view bytes,
                           std::uint64_t h = 1469598103934665603ull) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// `v` as 16 lowercase hex digits.
inline std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace sepe
