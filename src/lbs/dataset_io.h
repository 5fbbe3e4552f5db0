#ifndef LBSAGG_LBS_DATASET_IO_H_
#define LBSAGG_LBS_DATASET_IO_H_

#include <iosfwd>
#include <optional>
#include <string>

#include "lbs/dataset.h"

namespace lbsagg {

// CSV persistence for datasets, so the CLI tool (tools/lbsagg_cli) can run
// the estimators against user-provided point sets.
//
// Format: the first line is a header
//     x,y,<name>:<type>,...        with type ∈ {double, string, bool}
// followed by one row per tuple. String values must not contain commas.
// The bounding region is written as a leading comment line
//     # box <lo.x> <lo.y> <hi.x> <hi.y>

// Writes the dataset. Returns false on I/O failure.
bool SaveDatasetCsv(const Dataset& dataset, const std::string& path);
void WriteDatasetCsv(const Dataset& dataset, std::ostream& out);

// Reads a dataset; nullopt on malformed input (an explanation is written to
// `error` when non-null). Two tuples at the same location are malformed:
// the estimators assume general position (§2.2).
std::optional<Dataset> LoadDatasetCsv(const std::string& path,
                                      std::string* error = nullptr);
std::optional<Dataset> ReadDatasetCsv(std::istream& in,
                                      std::string* error = nullptr);

}  // namespace lbsagg

#endif  // LBSAGG_LBS_DATASET_IO_H_
