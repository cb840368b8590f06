// Restruct (§7): restructuring the 1NF schema into 3NF with keys and
// referential integrity constraints.
//
// Two passes over the elicited knowledge, then a harvest:
//   1. Hidden objects: each R_i.A_i ∈ H becomes a new relation R_p(A_i)
//      with key A_i (extension: the distinct non-NULL A_i-projection of
//      r_i). The IND R_i[A_i] ≪ R_p[A_i] is added and every *other*
//      occurrence of R_i[C], C ⊆ A_i, in IND is rewritten to R_p[C].
//   2. FDs: each R_i: A_i → B_i ∈ F becomes R_p(A_i ∪ B_i) with key A_i
//      (extension: one row per distinct non-NULL A_i value, dependent
//      values taken from the first witnessing tuple — they agree whenever
//      the FD actually holds; enforced FDs resolve conflicts
//      first-wins). That is, the extension is the first witnesses of the
//      LHS partition π_{A_i}, in value order. B_i is removed from R_i
//      (schema and columns), the IND R_i[A_i] ≪ R_p[A_i] is added, and
//      every other occurrence of R_i[C], C ⊆ A_i ∪ B_i, is rewritten to
//      R_p[C].
//      (The paper's text reads "add R_i.A_i to K", but its own output
//      schema keys A_i in R_p, not R_i — we follow the output.)
//   3. RIC = { R_i[A_i] ≪ R_j[A_j] ∈ IND : R_j.A_j ∈ K }.
//
// Every new extension is built from the source's encoded columns, never
// from decoded rows: the groups' codes are gathered, ordered by the
// columns' memoized value ranks (QueryCache::ValueOrderOf) and renumbered
// into canonical columns. Rows come out in Value order, as sorting the
// decoded rows would put them. An off-type source cell fails as
// Table::Insert would, naming the first such row.
//
// The input database is cloned; the result owns the restructured catalog
// with all new key declarations, so downstream steps (Translate, normal-
// form verification) can query it.
#ifndef DBRE_CORE_RESTRUCT_H_
#define DBRE_CORE_RESTRUCT_H_

#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/oracle.h"
#include "deps/fd.h"
#include "deps/ind.h"
#include "relational/database.h"

namespace dbre {

struct RestructResult {
  Database database;                        // restructured R ∪ S
  std::vector<InclusionDependency> inds;    // rewritten IND
  std::vector<InclusionDependency> rics;    // RIC ⊆ inds
  std::vector<QualifiedAttributes> keys;    // the final K
  // name of each relation created here → what it came from ("hidden object
  // R.{a}" or the FD's textual form).
  std::map<std::string, std::string> provenance;
};

// Runs Restruct. `oracle` provides application-domain names for the new
// relations (auto-derived when it returns "").
Result<RestructResult> Restruct(const Database& database,
                                const std::vector<FunctionalDependency>& fds,
                                const std::vector<QualifiedAttributes>& hidden,
                                const std::vector<InclusionDependency>& inds,
                                ExpertOracle* oracle);

}  // namespace dbre

#endif  // DBRE_CORE_RESTRUCT_H_
