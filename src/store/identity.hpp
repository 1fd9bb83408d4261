#pragma once

/// Run identity: a 64-bit hash over everything that determines the
/// numerical content of a run's mode results.  A checkpoint journal
/// stamped with one identity may only be resumed by a run with the
/// same identity: same physics, bitwise the same results.
///
/// One rule derives it, applied by run::RunPlan::identity():
///
///   kIdentityVersion
///   + every non-operational key of the RunConfig key table
///     (run/config.hpp tags each row cosmology / physics / operational)
///   + the derived inputs the plan hands the drivers: the k-grid, the
///     line-of-sight short tower and source sample times, and
///     boltzmann::kAutoSolverCrossoverK.
///
/// Operational keys (issue order, driver, transport, store, trace,
/// fault handling) are never hashed: they change which mode is computed
/// when and where, never what a mode's result is — the
/// driver-equivalence sweep holds this bitwise — so a journal written
/// largest-first may be resumed natural-order and vice versa.  A new
/// key cannot be added without a role, so a physics key cannot be left
/// out of the hash by omission.
///
/// The drivers never derive an identity: RunPlan stamps it on
/// RunSetup::identity, and the drivers' store binding checks a journal
/// against that value.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

namespace plinger::store {

struct RunIdentity {
  std::uint64_t value = 0;  ///< 0 = unset

  friend bool operator==(const RunIdentity&, const RunIdentity&) = default;
};

/// The identity rule's version, hashed first.  Bump it whenever code
/// outside the key table changes what a run computes — a record layout,
/// a per-mode PerturbationConfig constant that is not a key, the
/// auto-routing rule — so every older journal stamps differently and
/// its resume is refused with StoreIdentityMismatch.  Version 1 was a
/// hand-listed field hash; 2 is the key-table hash.
inline constexpr std::uint64_t kIdentityVersion = 2;

/// FNV-1a 64-bit over a stream of typed values: integers as 8 bytes,
/// doubles by bit pattern (any representable change moves the hash),
/// strings and sequences length-prefixed so adjacent fields never
/// alias.  No text is formatted, so hashing stays cheap enough for the
/// serve request path.
class IdentityHasher {
 public:
  void add(std::uint64_t v) { bytes(&v, sizeof v); }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  void add(std::string_view s) {
    add(static_cast<std::uint64_t>(s.size()));
    bytes(s.data(), s.size());
  }
  void add(std::span<const double> v) {
    add(static_cast<std::uint64_t>(v.size()));
    for (const double x : v) add(x);
  }

  std::uint64_t digest() const { return h_; }

 private:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 0x100000001B3ull;  // FNV prime
    }
  }

  std::uint64_t h_ = 0xCBF29CE484222325ull;  // FNV offset basis
};

}  // namespace plinger::store
