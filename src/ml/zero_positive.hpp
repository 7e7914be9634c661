// ZeroPositiveModel: a reconstruction-error anomaly detector trained only
// on *good* runs (zero-positive learning — no labelled bad examples).
//
// The paper's J48 tree only knows the ~30 workloads it was trained on; the
// zero-positive model complements it by learning what "normal" looks like
// and flagging anything that reconstructs poorly, which generalizes to
// workloads the labelled corpus never saw:
//
//  * every feature is z-normalized with the good-run mean/std (a per-feature
//    normalizer, with a relative floor so near-constant features still
//    discriminate without exploding on rounding noise);
//  * an autoencoder-lite PCA (Jacobi eigendecomposition of the normalized
//    covariance) keeps the top components explaining 95% of the good-run
//    variance, at most 8 of them; the anomaly score of a vector is its mean
//    squared reconstruction residual after projecting onto that subspace;
//  * the alarm threshold is calibrated on a seeded held-out quarter of the
//    good rows: twice the largest of their scores — so the false-alarm
//    budget on normal data is set by construction, not hand-tuned.
//
// Everything is a pure function of the rows: the held-out split is drawn
// with the library's pinned shuffle from a fixed seed, the eigensolver is
// deterministic, and save/load round-trips scores bit-identically through
// the versioned fsml-model container (ml/io.hpp).
//
// Missing features (NaN slots from degraded measurement) impute the
// good-run mean — a neutral value that biases toward "normal", matching the
// detector's abstain-rather-than-alarm degradation contract.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

namespace fsml::ml {

class ZeroPositiveModel {
 public:
  /// Fits normalizer, components, and threshold on good-run feature rows.
  /// Requires at least 4 rows, all of `names.size()` finite values.
  void fit(const std::vector<std::vector<double>>& good_rows,
           std::vector<std::string> names);

  bool fitted() const { return fitted_; }

  /// Mean squared reconstruction residual per feature (z-space). NaN slots
  /// impute the good-run mean. Requires fitted().
  double score(std::span<const double> x) const;

  /// score(x) > threshold(): the run does not look like any good run seen
  /// in training.
  bool anomalous(std::span<const double> x) const {
    return score(x) > threshold();
  }

  double threshold() const;
  std::size_t num_components() const { return components_.size(); }
  std::size_t num_features() const { return names_.size(); }
  const std::vector<std::string>& feature_names() const { return names_; }

  /// "zero-positive: 17 features, 4 components, threshold 3.1e-02 ..."
  std::string describe() const;

  /// Raw "fsml-zero-positive v1" payload; file variants wrap it in the
  /// versioned, checksummed fsml-model container and write atomically.
  void save(std::ostream& os) const;
  static ZeroPositiveModel load(std::istream& is);
  void save_file(const std::string& path) const;
  static ZeroPositiveModel load_file(const std::string& path);

 private:
  std::vector<std::string> names_;
  std::vector<double> mean_;
  std::vector<double> inv_std_;
  std::vector<std::vector<double>> components_;  ///< k x d, orthonormal
  double threshold_ = 0.0;
  bool fitted_ = false;
};

}  // namespace fsml::ml
