/**
 * @file
 * Communication assignment pass (paper §4.3).
 *
 * Stage 2 of AutoComm: analyse each burst block's pattern and pick the
 * cheaper of Cat-Comm and TP-Comm.
 *
 *  - Unidirectional blocks (hub always the Z-diagonal/control side, or
 *    always the X/target side — the latter transformed by Hadamard
 *    conjugation, Fig. 10a) execute in ONE Cat-Comm invocation (1 EPR)
 *    provided no absorbed single-qubit gate on the hub separates members
 *    with an incompatible axis.
 *  - Otherwise Cat-Comm needs one invocation per maximal compatible
 *    segment, while TP-Comm always needs exactly 2 EPR pairs (teleport
 *    out + release of the dirty side-effect). The cheaper wins; ties go
 *    to TP-Comm (the paper's default for its Fig. 8 block-3 example).
 */
#pragma once

#include <vector>

#include "autocomm/burst.hpp"
#include "qir/circuit.hpp"

namespace autocomm::pass {

/** Options for the assignment pass. */
struct AssignOptions
{
    /**
     * Permit TP-Comm. When false every block is forced onto Cat-Comm
     * segments (the Diadamo-style "Cat-Comm only" arm of Fig. 17b).
     */
    bool allow_tp = true;

    friend bool operator==(const AssignOptions&, const AssignOptions&) = default;
};

/**
 * Fill pattern/scheme/num_comms/cat_segments for every block.
 * @p c must be the same circuit aggregation ran on.
 */
void assign_schemes(const qir::Circuit& c, std::vector<CommBlock>& blocks,
                    const AssignOptions& opts = {});

/**
 * Number of Cat-Comm invocations needed for @p blk: members are split
 * into maximal runs with a uniform hub direction and no incompatible
 * absorbed hub gate between consecutive run members. Returns the segment
 * sizes through @p segments if non-null.
 */
int cat_invocations(const qir::Circuit& c, const CommBlock& blk,
                    std::vector<std::size_t>* segments = nullptr);

} // namespace autocomm::pass
