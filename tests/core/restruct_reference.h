// The row-insert Restruct, kept as the test oracle for the columnar one in
// src/core/restruct.cc.
//
// It builds every new relation the literal way: decode the distinct
// projection (hidden objects) or the LHS partition's first-witness rows
// (FD splits) into Value rows, std::sort them, and Table::Insert them one
// by one. Everything else — naming, IND rewriting, K and RIC — is the
// library's algorithm verbatim, so the two results must agree column for
// column: codes, dictionaries, has_null/typed flags and row order.
#ifndef DBRE_TESTS_CORE_RESTRUCT_REFERENCE_H_
#define DBRE_TESTS_CORE_RESTRUCT_REFERENCE_H_

#include <vector>

#include "core/restruct.h"

namespace dbre {

Result<RestructResult> RowInsertRestruct(
    const Database& database, const std::vector<FunctionalDependency>& fds,
    const std::vector<QualifiedAttributes>& hidden,
    const std::vector<InclusionDependency>& inds, ExpertOracle* oracle);

}  // namespace dbre

#endif  // DBRE_TESTS_CORE_RESTRUCT_REFERENCE_H_
