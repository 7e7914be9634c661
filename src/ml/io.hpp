// Dataset and model serialization.
//
// Datasets: ARFF (write), Weka's native format, so collected training data
// can be loaded into the actual Weka J48 for an external cross-check.
//
// Models: a versioned, integrity-checked container around C45Tree's raw
// text payload, so a trained tree survives process restarts and a corrupt
// or mismatched file is rejected with an actionable error instead of
// silently mis-predicting:
//
//   fsml-model v<format-version>
//   schema <16-hex FNV hash of attribute + class names>
//   payload <byte count>
//   <payload: the fsml-c45 v1 text stream>
//   crc32 <8-hex CRC of the payload bytes>
//
// load_model verifies, in order: magic, version (newer-than-build files are
// rejected, not guessed at), payload framing, CRC, the tree's structure
// against its own header (C45Tree::load), and that the embedded schema hash
// matches the payload's actual attribute/class names. A loaded tree
// predicts bit-identically to the tree that was saved.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "ml/c45.hpp"
#include "ml/dataset.hpp"

namespace fsml::ml {

/// Weka ARFF with numeric attributes and a nominal class.
void write_arff(const Dataset& data, const std::string& relation,
                std::ostream& os);

// ---- versioned model persistence -------------------------------------------

/// Current model container format version.
inline constexpr std::uint32_t kModelFormatVersion = 2;

/// The raw contents of an fsml-model container: an opaque text payload plus
/// the schema fingerprint the writer embedded. The container framing (magic,
/// version, payload byte count, CRC32) is shared by every model kind this
/// library persists — the C4.5 tree and the zero-positive anomaly model —
/// so corruption handling and version policy live in exactly one place.
struct ModelContainer {
  std::string payload;
  std::uint64_t schema = 0;
};

/// Writes the container framing around `payload`.
void write_container(std::ostream& os, const std::string& payload,
                     std::uint64_t schema);

/// Reads and verifies a container: magic, version (newer-than-build files
/// are rejected, not guessed at), payload framing, and CRC. Schema
/// *semantics* are the caller's to check — the container only transports the
/// hash. Throws std::runtime_error with an actionable message.
ModelContainer read_container(std::istream& is);

/// Order-sensitive FNV-1a hash over attribute names then class names — the
/// feature-schema fingerprint embedded in model files.
std::uint64_t schema_hash(const std::vector<std::string>& attributes,
                          const std::vector<std::string>& classes);

/// Writes the versioned, checksummed model container.
void save_model(const C45Tree& tree, std::ostream& os);

/// Reads a model container, verifying magic, version, framing, CRC, and
/// schema hash. Throws std::runtime_error with an actionable message on any
/// mismatch. Also accepts a bare legacy "fsml-c45 v1" stream (pre-container
/// files) so existing models keep loading.
C45Tree load_model(std::istream& is);

/// File variants. save_model_file writes atomically (util::AtomicFile):
/// a crash mid-save leaves the previous model intact.
void save_model_file(const C45Tree& tree, const std::string& path);
C45Tree load_model_file(const std::string& path);

}  // namespace fsml::ml
