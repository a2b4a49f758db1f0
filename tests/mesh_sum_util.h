// Test helper: the secure vector sum as P threads over the in-process
// mesh, one PartySecureVectorSum per party.

#ifndef DASH_TESTS_MESH_SUM_UTIL_H_
#define DASH_TESTS_MESH_SUM_UTIL_H_

#include <cstring>
#include <vector>

#include "mpc/secure_sum.h"
#include "net/network.h"
#include "net/trace.h"

namespace dash {

// Sums inputs[p] as party p's private contribution. Every party must
// reveal the same bits; returns them, or the run's failure. `traffic`
// receives the run's traffic and `trace` is attached to every endpoint
// (both optional).
inline Result<Vector> MeshSecureSum(const std::vector<Vector>& inputs,
                                    const SecureSumOptions& options,
                                    MeshTraffic* traffic = nullptr,
                                    ProtocolTrace* trace = nullptr) {
  std::vector<Vector> totals(inputs.size());
  DASH_RETURN_IF_ERROR(RunPartiesInProcess(
      static_cast<int>(inputs.size()),
      [&](Transport* transport) -> Status {
        const size_t p = static_cast<size_t>(transport->local_party());
        if (trace != nullptr) transport->AttachTrace(trace);
        PartySecureVectorSum sum(transport, options);
        DASH_ASSIGN_OR_RETURN(totals[p], sum.Run(Secret<Vector>(inputs[p])));
        return Status::Ok();
      },
      traffic));
  for (const Vector& t : totals) {
    if (t.size() != totals[0].size() ||
        (!t.empty() && std::memcmp(t.data(), totals[0].data(),
                                   t.size() * sizeof(double)) != 0)) {
      return InternalError("parties revealed different totals");
    }
  }
  return totals[0];
}

}  // namespace dash

#endif  // DASH_TESTS_MESH_SUM_UTIL_H_
