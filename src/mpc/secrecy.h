// Secrecy type discipline for the MPC layer (DESIGN.md §11).
//
// The paper's security argument is that a party only ever releases
// masked or aggregated material: raw shares, pairwise masks, and
// pre-reveal accumulators must never cross the process boundary. Two
// wrapper types make that invariant a compile-time property instead of
// a convention:
//
//  * Secret<T>  — material derived from a party's private data (ring
//    encodings, share vectors, DH exponents, mask keys). Anyone
//    may CREATE a Secret (wrapping your own data costs nothing), but
//    READING one requires either the MPC-layer passkey (MpcPass, only
//    constructible inside dash_mpc) or the audited DASH_DECLASSIFY
//    escape hatch.
//  * Masked<T>  — material that is safe to put on the wire because the
//    MPC layer already masked/aggregated it (a pairwise-masked vector,
//    a partial share-sum that is individually uniform). The duality of
//    Secret: anyone may READ a Masked value, but only the MPC layer can
//    SEAL one.
//
// Escape hatches, in decreasing order of preference:
//  * MaskAndSerialize(masked)       — wire bytes of sealed material.
//  * SerializeShareForHolder(share) — wire bytes of ONE share destined
//    for its holder; a single additive share is marginally uniform, so
//    sending it to exactly one party reveals nothing.
//  * DASH_DECLASSIFY(expr, reason)  — audited raw access. Every use is
//    recorded in the SecrecyAudit registry and must be justified by an
//    entry in tools/secrecy_allowlist.txt naming the PROTOCOL.md round
//    that makes the reveal safe. tools/dash_taint.py enforces this.
//
// The passkey is gated on the DASH_MPC_INTERNAL preprocessor define,
// which the build system sets PRIVATE to the dash_mpc target only (see
// src/CMakeLists.txt); code outside src/mpc/ that tries to take the
// raw value of a share simply does not compile
// (tests/secrecy_compile_fail.cc demonstrates).

#ifndef DASH_MPC_SECRECY_H_
#define DASH_MPC_SECRECY_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dash {

// Ring-encoded payloads (Z_2^64 elements).
using RingVector = std::vector<uint64_t>;

// Passkey for MPC-internal access to Secret values. The constructor is
// private and Get() is only declared when DASH_MPC_INTERNAL is defined,
// i.e. when compiling the dash_mpc library itself. The class is empty
// and every member is constexpr, so the conditional declaration has no
// linkage footprint.
class MpcPass {
 public:
#if defined(DASH_MPC_INTERNAL)
  static constexpr MpcPass Get() { return MpcPass{}; }
#endif

 private:
  constexpr MpcPass() = default;
};

// Where and why a Secret was declassified; captured by DASH_DECLASSIFY.
struct DeclassifyContext {
  const char* reason;
  const char* file;
  int line;
};

// Process-wide audit trail of declassifications. Thread-safe: party
// threads declassify concurrently under the TSan job.
class SecrecyAudit {
 public:
  // Number of declassifications since start / last reset.
  static int64_t count();

  // "file:line: reason" for the recorded sites (deduplicated, capped).
  static std::vector<std::string> Sites();

  static void Record(const DeclassifyContext& ctx);
  static void ResetForTest();
};

template <typename T>
class Secret;

template <typename T>
T Declassify(const Secret<T>& secret, const DeclassifyContext& ctx);

// Secret material. Free to construct, gated to read.
template <typename T>
class [[nodiscard]] Secret {
 public:
  Secret() = default;
  explicit Secret(T value) : value_(std::move(value)) {}

  // MPC-layer access; MpcPass is only constructible inside dash_mpc.
  const T& Reveal(MpcPass) const { return value_; }
  T& MutableReveal(MpcPass) { return value_; }

 private:
  template <typename U>
  friend U Declassify(const Secret<U>&, const DeclassifyContext&);

  T value_{};
};

// Wire-safe material. Free to read, gated to seal: only the MPC layer
// can certify that a buffer is masked/aggregated.
template <typename T>
class [[nodiscard]] Masked {
 public:
  Masked() = default;

  static Masked Seal(T wire_safe, MpcPass) {
    return Masked(std::move(wire_safe));
  }

  const T& wire() const { return value_; }

 private:
  explicit Masked(T value) : value_(std::move(value)) {}

  T value_{};
};

// Audited raw read. Prefer the DASH_DECLASSIFY macro, which records the
// call site; direct calls are flagged by dash_taint unless allowlisted.
template <typename T>
T Declassify(const Secret<T>& secret, const DeclassifyContext& ctx) {
  SecrecyAudit::Record(ctx);
  return secret.value_;
}

// The `"" reason` concatenation forces `reason` to be a string literal,
// so the audit trail can never carry a computed (possibly secret-
// derived) justification.
#define DASH_DECLASSIFY(expr, reason)         \
  ::dash::Declassify((expr), ::dash::DeclassifyContext{ \
                                 "" reason, __FILE__, __LINE__})

// --- Serialization escape hatches (reveal points) --------------------
//
// These are the only sanctioned paths from wrapper types to wire bytes;
// tools/secrecy_allowlist.txt maps each to its PROTOCOL.md round.

// Wire bytes of sealed (already masked/aggregated) material.
[[nodiscard]] std::vector<uint8_t> MaskAndSerialize(
    const Masked<RingVector>& masked);

// Wire bytes of the chunk [begin, end) of sealed material, led by the
// full vector's length: one reduce message of a secure sum
// (mpc/secure_sum.h). The receiver checks that length against its own
// before it adds anything.
[[nodiscard]] std::vector<uint8_t> MaskAndSerialize(
    const Masked<RingVector>& masked, size_t begin, size_t end);

// Wire bytes of a single share, destined for its holder only. Any one
// share is marginally uniform; sending the same share to two parties
// would break the secrecy argument, which is why this returns bytes for
// a point-to-point Send and not a Broadcast payload.
[[nodiscard]] std::vector<uint8_t> SerializeShareForHolder(
    const Secret<RingVector>& share);

}  // namespace dash

#endif  // DASH_MPC_SECRECY_H_
