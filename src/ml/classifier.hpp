// Base interface shared by every classifier in fsml::ml.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "ml/dataset.hpp"

namespace fsml::ml {

class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Fits the model; may be called again to refit.
  virtual void train(const Dataset& data) = 0;

  /// Predicted class index for a feature vector. Vectors may contain
  /// kMissingValue (NaN) slots only if handles_missing() is true.
  virtual int predict(std::span<const double> x) const = 0;

  /// Whether predict()/train() accept missing (NaN) attribute values.
  /// Classifiers without explicit support would silently mispropagate NaN
  /// through their arithmetic, so callers with degraded measurements must
  /// check this.
  virtual bool handles_missing() const { return false; }

  /// Class membership distribution; default is a one-hot of predict().
  virtual std::vector<double> distribution(std::span<const double> x) const;

  /// Human-readable model dump (tree text, per-class stats, ...).
  virtual std::string describe() const = 0;

  virtual std::string name() const = 0;

  /// Fresh untrained copy with identical hyper-parameters (used by CV).
  virtual std::unique_ptr<Classifier> make_untrained() const = 0;

 protected:
  /// Stored at train() time so distribution() knows the class arity.
  std::size_t trained_num_classes_ = 0;
};

}  // namespace fsml::ml
