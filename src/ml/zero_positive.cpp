#include "ml/zero_positive.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "ml/io.hpp"
#include "util/atomic_file.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace fsml::ml {

namespace {

constexpr const char* kPayloadMagic = "fsml-zero-positive";
constexpr int kPayloadVersion = 1;

/// Fraction of good-run variance the kept PCA components must explain.
constexpr double kVarianceCaptured = 0.95;
/// Hard cap on kept components (the "bottleneck" width).
constexpr std::size_t kMaxComponents = 8;
/// Fraction of good rows held out for threshold calibration.
constexpr double kCalibrationFraction = 0.25;
/// Safety factor applied on top of the largest held-out score.
constexpr double kThresholdMargin = 2.0;
/// Seed of the held-out split.
constexpr std::uint64_t kSplitSeed = 42;

[[noreturn]] void zp_error(const std::string& what) {
  throw std::runtime_error("zero-positive model: " + what);
}

/// The per-feature std floor: a feature that is (near-)constant over the
/// good runs still discriminates — a bad run deviating from the constant
/// gets a large z — but double-rounding noise around a large mean must not
/// explode, so the floor is relative to the mean's magnitude.
double std_floor(double mean) {
  return 1e-9 + 1e-6 * std::fabs(mean);
}

/// Cyclic Jacobi eigendecomposition of a symmetric matrix. Deterministic:
/// fixed sweep order, fixed convergence bound. `a` is destroyed; returns
/// eigenvalues, fills `vectors` with the matching orthonormal eigenvectors
/// (row per eigenvalue).
std::vector<double> jacobi_eigen(std::vector<std::vector<double>> a,
                                 std::vector<std::vector<double>>& vectors) {
  const std::size_t d = a.size();
  vectors.assign(d, std::vector<double>(d, 0.0));
  for (std::size_t i = 0; i < d; ++i) vectors[i][i] = 1.0;

  for (int sweep = 0; sweep < 100; ++sweep) {
    double off = 0.0;
    for (std::size_t p = 0; p < d; ++p)
      for (std::size_t q = p + 1; q < d; ++q) off += a[p][q] * a[p][q];
    if (off < 1e-24) break;

    for (std::size_t p = 0; p < d; ++p) {
      for (std::size_t q = p + 1; q < d; ++q) {
        if (std::fabs(a[p][q]) < 1e-300) continue;
        const double theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q]);
        const double t = (theta >= 0.0 ? 1.0 : -1.0) /
                         (std::fabs(theta) +
                          std::sqrt(theta * theta + 1.0));
        const double c = 1.0 / std::sqrt(t * t + 1.0);
        const double s = t * c;
        for (std::size_t k = 0; k < d; ++k) {
          const double akp = a[k][p], akq = a[k][q];
          a[k][p] = c * akp - s * akq;
          a[k][q] = s * akp + c * akq;
        }
        for (std::size_t k = 0; k < d; ++k) {
          const double apk = a[p][k], aqk = a[q][k];
          a[p][k] = c * apk - s * aqk;
          a[q][k] = s * apk + c * aqk;
        }
        for (std::size_t k = 0; k < d; ++k) {
          const double vpk = vectors[p][k], vqk = vectors[q][k];
          vectors[p][k] = c * vpk - s * vqk;
          vectors[q][k] = s * vpk + c * vqk;
        }
      }
    }
  }

  std::vector<double> eigenvalues(d);
  for (std::size_t i = 0; i < d; ++i) eigenvalues[i] = a[i][i];
  return eigenvalues;
}

}  // namespace

void ZeroPositiveModel::fit(const std::vector<std::vector<double>>& good_rows,
                            std::vector<std::string> names) {
  const std::size_t d = names.size();
  if (d == 0) zp_error("cannot fit on an empty feature schema");
  if (good_rows.size() < 4)
    zp_error("needs at least 4 good runs to fit and calibrate, got " +
             std::to_string(good_rows.size()));
  for (const auto& row : good_rows) {
    if (row.size() != d)
      zp_error("row width " + std::to_string(row.size()) +
               " does not match the feature schema (" + std::to_string(d) +
               ")");
    for (const double v : row)
      if (!std::isfinite(v))
        zp_error("training rows must be fully observed and finite "
                 "(good-run collection never drops events)");
  }

  // Seeded held-out split: calibration rows never influence the normalizer
  // or the components, so the threshold measures genuine generalization
  // error on unseen good runs.
  std::vector<std::size_t> order(good_rows.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  util::Rng rng(kSplitSeed);
  util::shuffle(order.begin(), order.end(), rng);
  std::size_t n_calib = static_cast<std::size_t>(
      kCalibrationFraction * static_cast<double>(order.size()));
  n_calib = std::max<std::size_t>(1, n_calib);
  n_calib = std::min(n_calib, order.size() - 2);  // keep >= 2 fit rows
  const std::size_t n_fit = order.size() - n_calib;

  names_ = std::move(names);

  // Per-feature normalizer from the fit split.
  mean_.assign(d, 0.0);
  inv_std_.assign(d, 0.0);
  for (std::size_t r = 0; r < n_fit; ++r)
    for (std::size_t j = 0; j < d; ++j) mean_[j] += good_rows[order[r]][j];
  for (double& m : mean_) m /= static_cast<double>(n_fit);
  std::vector<double> var(d, 0.0);
  for (std::size_t r = 0; r < n_fit; ++r)
    for (std::size_t j = 0; j < d; ++j) {
      const double dv = good_rows[order[r]][j] - mean_[j];
      var[j] += dv * dv;
    }
  for (std::size_t j = 0; j < d; ++j) {
    const double s = std::sqrt(var[j] / static_cast<double>(n_fit));
    inv_std_[j] = 1.0 / std::max(s, std_floor(mean_[j]));
  }

  // Covariance of the z-scored fit rows (== their correlation matrix).
  std::vector<std::vector<double>> z(n_fit, std::vector<double>(d));
  for (std::size_t r = 0; r < n_fit; ++r)
    for (std::size_t j = 0; j < d; ++j)
      z[r][j] = (good_rows[order[r]][j] - mean_[j]) * inv_std_[j];
  std::vector<std::vector<double>> cov(d, std::vector<double>(d, 0.0));
  for (std::size_t r = 0; r < n_fit; ++r)
    for (std::size_t i = 0; i < d; ++i)
      for (std::size_t j = i; j < d; ++j) cov[i][j] += z[r][i] * z[r][j];
  for (std::size_t i = 0; i < d; ++i)
    for (std::size_t j = i; j < d; ++j) {
      cov[i][j] /= static_cast<double>(n_fit);
      cov[j][i] = cov[i][j];
    }

  std::vector<std::vector<double>> vectors;
  const std::vector<double> eigenvalues = jacobi_eigen(cov, vectors);

  // Keep the smallest component set explaining kVarianceCaptured of the
  // (clamped-positive) total, capped at kMaxComponents. Ties and order are
  // pinned: sort by (eigenvalue desc, index asc).
  std::vector<std::size_t> by_value(d);
  for (std::size_t i = 0; i < d; ++i) by_value[i] = i;
  std::sort(by_value.begin(), by_value.end(),
            [&](std::size_t a, std::size_t b) {
              if (eigenvalues[a] != eigenvalues[b])
                return eigenvalues[a] > eigenvalues[b];
              return a < b;
            });
  double total = 0.0;
  for (const double ev : eigenvalues) total += std::max(ev, 0.0);
  components_.clear();
  double captured = 0.0;
  for (const std::size_t i : by_value) {
    if (components_.size() >= kMaxComponents) break;
    if (!components_.empty() &&
        captured >= kVarianceCaptured * total)
      break;
    // Deterministic sign convention: first component of largest magnitude
    // is positive.
    std::vector<double> v = vectors[i];
    std::size_t arg = 0;
    for (std::size_t j = 1; j < d; ++j)
      if (std::fabs(v[j]) > std::fabs(v[arg])) arg = j;
    if (v[arg] < 0.0)
      for (double& x : v) x = -x;
    components_.push_back(std::move(v));
    captured += std::max(eigenvalues[i], 0.0);
  }
  fitted_ = true;

  // Calibrate the threshold on the largest held-out score.
  double max_error = 0.0;
  for (std::size_t r = n_fit; r < order.size(); ++r)
    max_error = std::max(max_error, score(good_rows[order[r]]));
  threshold_ = std::max(kThresholdMargin * max_error, 1e-9);
}

double ZeroPositiveModel::score(std::span<const double> x) const {
  FSML_CHECK_MSG(fitted_, "zero-positive model is not fitted");
  const std::size_t d = names_.size();
  FSML_CHECK_MSG(x.size() == d,
                 "feature vector width does not match the fitted schema");
  std::vector<double> z(d);
  for (std::size_t j = 0; j < d; ++j)
    z[j] = std::isnan(x[j]) ? 0.0 : (x[j] - mean_[j]) * inv_std_[j];

  // Residual after projecting onto the kept components.
  std::vector<double> r = z;
  for (const std::vector<double>& v : components_) {
    double dot = 0.0;
    for (std::size_t j = 0; j < d; ++j) dot += v[j] * z[j];
    for (std::size_t j = 0; j < d; ++j) r[j] -= dot * v[j];
  }
  double err = 0.0;
  for (const double rv : r) err += rv * rv;
  return err / static_cast<double>(d);
}

double ZeroPositiveModel::threshold() const {
  FSML_CHECK_MSG(fitted_, "zero-positive model is not fitted");
  return threshold_;
}

std::string ZeroPositiveModel::describe() const {
  std::ostringstream os;
  if (!fitted_) return "zero-positive: unfitted";
  os << "zero-positive: " << names_.size() << " features, "
     << components_.size() << " components, threshold ";
  os.precision(3);
  os << std::scientific << threshold_;
  return os.str();
}

void ZeroPositiveModel::save(std::ostream& os) const {
  FSML_CHECK_MSG(fitted_, "cannot save an unfitted zero-positive model");
  os.precision(17);
  os << kPayloadMagic << " v" << kPayloadVersion << '\n';
  os << "features " << names_.size();
  for (const auto& n : names_) os << ' ' << n;
  os << '\n';
  os << "mean";
  for (const double v : mean_) os << ' ' << v;
  os << '\n';
  os << "inv_std";
  for (const double v : inv_std_) os << ' ' << v;
  os << '\n';
  os << "components " << components_.size() << '\n';
  for (const auto& c : components_) {
    os << "c";
    for (const double v : c) os << ' ' << v;
    os << '\n';
  }
  os << "threshold " << threshold_ << '\n';
}

ZeroPositiveModel ZeroPositiveModel::load(std::istream& is) {
  std::string magic, version;
  is >> magic >> version;
  if (!is || magic != kPayloadMagic)
    zp_error("payload is not an fsml-zero-positive stream");
  std::string expected_version = "v";
  expected_version += std::to_string(kPayloadVersion);
  if (version != expected_version)
    zp_error("payload version '" + version +
             "' is not supported by this build");

  ZeroPositiveModel model;
  std::string keyword;
  std::size_t d = 0;
  is >> keyword >> d;
  if (!is || keyword != "features" || d == 0 || d > 4096)
    zp_error("malformed feature schema line");
  model.names_.resize(d);
  for (auto& n : model.names_) is >> n;

  const auto read_row = [&](const char* name, std::vector<double>& out) {
    is >> keyword;
    if (!is || keyword != name)
      zp_error(std::string("malformed ") + name + " line");
    out.resize(d);
    for (double& v : out) is >> v;
    if (!is) zp_error(std::string("truncated ") + name + " line");
  };
  read_row("mean", model.mean_);
  read_row("inv_std", model.inv_std_);

  std::size_t k = 0;
  is >> keyword >> k;
  if (!is || keyword != "components" || k > d)
    zp_error("malformed components header");
  model.components_.resize(k);
  for (auto& c : model.components_) read_row("c", c);

  is >> keyword >> model.threshold_;
  if (!is || keyword != "threshold" || !(model.threshold_ > 0.0))
    zp_error("malformed threshold line");
  model.fitted_ = true;
  return model;
}

void ZeroPositiveModel::save_file(const std::string& path) const {
  std::ostringstream payload;
  save(payload);
  util::AtomicFile file(path);
  write_container(file.stream(), payload.str(),
                  schema_hash(names_, {"zero-positive"}));
  file.commit();
}

ZeroPositiveModel ZeroPositiveModel::load_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is)
    throw std::runtime_error("cannot open anomaly model file " + path +
                             " — train one with `fsml_analyze train "
                             "--save-anomaly=" + path + "`");
  try {
    const ModelContainer container = read_container(is);
    std::istringstream ps(container.payload);
    ZeroPositiveModel model = load(ps);
    if (schema_hash(model.names_, {"zero-positive"}) != container.schema)
      zp_error("schema hash does not match the payload: the file is "
               "corrupt or was tampered with");
    return model;
  } catch (const std::exception& e) {
    throw std::runtime_error(path + ": " + e.what());
  }
}

}  // namespace fsml::ml
