#include "mpc/secrecy.h"

#include <algorithm>
#include <atomic>

#include "net/serialization.h"
#include "util/mutex.h"

namespace dash {
namespace {

// Keep the site list bounded: sites are deduplicated, and the audit must
// not grow without limit even if that ever stops holding.
constexpr size_t kMaxRecordedSites = 256;

std::atomic<int64_t> g_declassify_count{0};

// Process-wide audit state behind one ranked mutex (a function-local
// static so it works from any thread at any time, including before
// main). kSecrecyAudit is near-innermost: Record runs inside scan jobs
// that may already hold scheduler and mux locks.
struct AuditRegistry {
  Mutex mu{LockRank::kSecrecyAudit};
  std::vector<std::string> sites DASH_GUARDED_BY(mu);

  static AuditRegistry& Instance() {
    static AuditRegistry registry;
    return registry;
  }
};

}  // namespace

int64_t SecrecyAudit::count() {
  return g_declassify_count.load(std::memory_order_relaxed);
}

std::vector<std::string> SecrecyAudit::Sites() {
  AuditRegistry& registry = AuditRegistry::Instance();
  MutexLock lock(&registry.mu);
  return registry.sites;
}

void SecrecyAudit::Record(const DeclassifyContext& ctx) {
  g_declassify_count.fetch_add(1, std::memory_order_relaxed);
  AuditRegistry& registry = AuditRegistry::Instance();
  MutexLock lock(&registry.mu);
  if (registry.sites.size() >= kMaxRecordedSites) return;
  std::string site = std::string(ctx.file) + ":" + std::to_string(ctx.line) +
                     ": " + ctx.reason;
  if (std::find(registry.sites.begin(), registry.sites.end(), site) ==
      registry.sites.end()) {
    registry.sites.push_back(std::move(site));
  }
}

void SecrecyAudit::ResetForTest() {
  g_declassify_count.store(0, std::memory_order_relaxed);
  AuditRegistry& registry = AuditRegistry::Instance();
  MutexLock lock(&registry.mu);
  registry.sites.clear();
}

std::vector<uint8_t> MaskAndSerialize(const Masked<RingVector>& masked) {
  ByteWriter w;
  w.PutU64Vector(masked.wire());
  return w.Take();
}

std::vector<uint8_t> SerializeShareForHolder(const Secret<RingVector>& share) {
  ByteWriter w;
  w.PutU64Vector(share.Reveal(MpcPass::Get()));
  return w.Take();
}

}  // namespace dash
