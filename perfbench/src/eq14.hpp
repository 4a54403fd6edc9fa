// Eq. (14), the feasibility model of Algorithm 2 (the MIP attack): for each
// known pair, the implied noise term rhat * I'_i^T T' - that - P_i . Q lies
// in [mu - l sigma, mu + l sigma].
#pragma once

#include <vector>

#include "common/types.hpp"
#include "core/mip_attack.hpp"
#include "scheme/split_encryptor.hpp"
#include "sse/adversary_view.hpp"

namespace perfbench {

/// True when the answer (query, rhat, that) satisfies Eq. (14) for every
/// known pair, within a relative tolerance of 1e-7.
[[nodiscard]] bool satisfies_eq14(
    const std::vector<aspe::sse::KnownBinaryPair>& pairs,
    const aspe::scheme::CipherPair& trapdoor, const aspe::BitVec& query,
    double rhat, double that, double mu, double sigma,
    const aspe::core::MipAttackOptions& options = {});

/// True when the plaintext query `q` behind `trapdoor` satisfies Eq. (14)
/// for some (rhat, that) within the attack's bounds: the paper's l = 3
/// coverage assumption holds for it. Outside the model the attack can
/// answer only with another query, or not at all.
[[nodiscard]] bool query_in_model(
    const std::vector<aspe::BitVec>& records,
    const std::vector<aspe::scheme::CipherPair>& indexes,
    const aspe::scheme::CipherPair& trapdoor, const aspe::BitVec& q, double mu,
    double sigma, const aspe::core::MipAttackOptions& options = {});

}  // namespace perfbench
