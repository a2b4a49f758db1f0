#include "core/party_local.h"

#include "linalg/qr.h"

namespace dash {

Result<Matrix> PartyLocalRFactor(const PartyData& party) {
  return QrRFactor(party.c);
}

Matrix PartyLocalQ(const PartyData& party, const Matrix& r_inverse) {
  return MatMul(party.c, r_inverse);
}

}  // namespace dash
