#include "ml/c45.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <limits>
#include <numeric>
#include <ostream>
#include <sstream>

#include "util/check.hpp"

namespace fsml::ml {

namespace {

/// Inverse of the standard normal CDF (Acklam's rational approximation,
/// |relative error| < 1.15e-9). Needed for the pruning confidence bound.
double normal_inverse(double p) {
  FSML_CHECK(p > 0.0 && p < 1.0);
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  constexpr double p_high = 1 - p_low;
  double q, r;
  if (p < p_low) {
    q = std::sqrt(-2 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  }
  if (p <= p_high) {
    q = p - 0.5;
    r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
            a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1);
  }
  q = std::sqrt(-2 * std::log(1 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
           c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
}

double log2_safe(double x) { return x <= 0.0 ? 0.0 : std::log2(x); }

}  // namespace

double entropy(std::span<const double> counts) {
  double total = 0.0;
  for (double c : counts) total += c;
  if (total <= 0.0) return 0.0;
  double h = 0.0;
  for (double c : counts) {
    if (c <= 0.0) continue;
    const double p = c / total;
    h -= p * std::log2(p);
  }
  return h;
}

double added_errors(double n, double e, double confidence) {
  FSML_CHECK(n > 0.0 && e >= 0.0 && e <= n);
  FSML_CHECK(confidence > 0.0 && confidence < 1.0);
  if (e < 1.0) {
    // Exact binomial bound for the zero-error case, interpolated below one
    // error (this is what both C4.5 and Weka do).
    const double base = n * (1.0 - std::pow(confidence, 1.0 / n));
    if (e == 0.0) return base;
    return base + e * (added_errors(n, 1.0, confidence) - base);
  }
  if (e + 0.5 >= n) return std::max(n - e, 0.0);
  const double z = normal_inverse(1.0 - confidence);
  const double f = (e + 0.5) / n;
  const double r =
      (f + z * z / (2 * n) +
       z * std::sqrt(f / n - f * f / n + z * z / (4 * n * n))) /
      (1 + z * z / n);
  return r * n - e;
}

std::size_t C45Tree::Node::count_leaves() const {
  if (is_leaf) return 1;
  return left->count_leaves() + right->count_leaves();
}

std::size_t C45Tree::Node::count_nodes() const {
  if (is_leaf) return 1;
  return 1 + left->count_nodes() + right->count_nodes();
}

C45Tree::C45Tree(C45Params params) : params_(params) {}
C45Tree::~C45Tree() = default;

namespace {

std::unique_ptr<C45Tree::Node> clone_node(const C45Tree::Node* n) {
  if (!n) return nullptr;
  auto out = std::make_unique<C45Tree::Node>();
  out->is_leaf = n->is_leaf;
  out->predicted_class = n->predicted_class;
  out->class_counts = n->class_counts;
  out->training_errors = n->training_errors;
  out->attribute = n->attribute;
  out->threshold = n->threshold;
  out->left = clone_node(n->left.get());
  out->right = clone_node(n->right.get());
  return out;
}

}  // namespace

C45Tree::C45Tree(const C45Tree& other)
    : Classifier(other),
      params_(other.params_),
      root_(clone_node(other.root_.get())),
      attribute_names_(other.attribute_names_),
      class_names_(other.class_names_) {}

std::unique_ptr<Classifier> C45Tree::make_untrained() const {
  return std::make_unique<C45Tree>(params_);
}

namespace {

/// One (possibly fractional) training instance inside the builder. Fully
/// observed data keeps weight exactly 1.0, so every weighted sum below
/// reproduces the integer-count arithmetic bit-for-bit; only instances
/// missing a split attribute are ever subdivided.
struct Item {
  std::size_t index = 0;
  double weight = 1.0;
};

/// Fractional weights below this are dropped when an instance is split
/// across branches — they cannot influence a (min 2 instances) leaf and
/// bounding them keeps item lists from growing without bound on data with
/// many missing values.
constexpr double kMinItemWeight = 1e-6;

struct Builder {
  const Dataset& data;
  const C45Params& params;

  struct BestSplit {
    std::size_t attribute = 0;
    double threshold = 0.0;
    double gain = 0.0;
    double gain_ratio = 0.0;
  };

  std::unique_ptr<C45Tree::Node> build(std::vector<Item>& items, int depth) {
    auto node = std::make_unique<C45Tree::Node>();
    node->class_counts.assign(data.num_classes(), 0.0);
    double n = 0.0;
    for (const Item& it : items) {
      node->class_counts[static_cast<std::size_t>(data.at(it.index).y)] +=
          it.weight;
      n += it.weight;
    }
    const auto max_it = std::max_element(node->class_counts.begin(),
                                         node->class_counts.end());
    node->predicted_class =
        static_cast<int>(std::distance(node->class_counts.begin(), max_it));
    node->training_errors = n - *max_it;

    const bool pure = *max_it == n;
    if (pure || n < 2.0 * static_cast<double>(params.min_leaf_instances) ||
        depth >= C45Tree::kMaxDepth) {
      return node;  // leaf
    }

    const auto best = find_best_split(items, n);
    if (!best) return node;

    // Known values pick a side; instances missing the split attribute go to
    // BOTH sides, weighted by the known-value proportions (Quinlan ch. 5).
    double left_known = 0.0, known = 0.0;
    for (const Item& it : items) {
      const double v = data.at(it.index).x[best->attribute];
      if (is_missing(v)) continue;
      known += it.weight;
      if (v <= best->threshold) left_known += it.weight;
    }
    const double left_share = left_known / known;

    std::vector<Item> left_items, right_items;
    left_items.reserve(items.size());
    right_items.reserve(items.size());
    for (const Item& it : items) {
      const double v = data.at(it.index).x[best->attribute];
      if (is_missing(v)) {
        const double lw = it.weight * left_share;
        const double rw = it.weight - lw;
        if (lw >= kMinItemWeight) left_items.push_back({it.index, lw});
        if (rw >= kMinItemWeight) right_items.push_back({it.index, rw});
        continue;
      }
      (v <= best->threshold ? left_items : right_items).push_back(it);
    }
    FSML_DCHECK(!left_items.empty() && !right_items.empty());

    node->is_leaf = false;
    node->attribute = best->attribute;
    node->threshold = best->threshold;
    node->left = build(left_items, depth + 1);
    node->right = build(right_items, depth + 1);
    return node;
  }

  std::optional<BestSplit> find_best_split(const std::vector<Item>& items,
                                           double total_weight) {
    const std::size_t num_classes = data.num_classes();

    std::vector<BestSplit> candidates;  // best per attribute
    std::vector<Item> sorted;
    std::vector<double> known_counts(num_classes);

    for (std::size_t a = 0; a < data.num_attributes(); ++a) {
      // Gain is computed on the instances whose value for `a` is known,
      // then discounted by the known fraction F = known/total. With no
      // missing values F is exactly 1 and this matches the unweighted
      // criterion bit-for-bit.
      sorted.clear();
      std::fill(known_counts.begin(), known_counts.end(), 0.0);
      double known_weight = 0.0;
      for (const Item& it : items) {
        if (is_missing(data.at(it.index).x[a])) continue;
        sorted.push_back(it);
        known_counts[static_cast<std::size_t>(data.at(it.index).y)] +=
            it.weight;
        known_weight += it.weight;
      }
      if (sorted.size() < 2) continue;
      std::sort(sorted.begin(), sorted.end(),
                [&](const Item& i, const Item& j) {
                  return data.at(i.index).x[a] < data.at(j.index).x[a];
                });

      const double base_entropy = entropy(known_counts);
      const double known_fraction = known_weight / total_weight;
      const double missing_weight = total_weight - known_weight;

      std::vector<double> left_counts(num_classes, 0.0);
      std::vector<double> right_counts = known_counts;

      double best_gain = 0.0;
      double best_threshold = 0.0;
      double best_split_info = 0.0;
      std::size_t num_candidates = 0;
      bool found = false;

      double left_weight = 0.0;
      for (std::size_t pos = 0; pos + 1 < sorted.size(); ++pos) {
        const Instance& cur = data.at(sorted[pos].index);
        left_counts[static_cast<std::size_t>(cur.y)] += sorted[pos].weight;
        right_counts[static_cast<std::size_t>(cur.y)] -= sorted[pos].weight;
        left_weight += sorted[pos].weight;
        const double next_val = data.at(sorted[pos + 1].index).x[a];
        if (cur.x[a] == next_val) continue;  // not a cut point
        const double right_weight = known_weight - left_weight;
        if (left_weight < static_cast<double>(params.min_leaf_instances) ||
            right_weight < static_cast<double>(params.min_leaf_instances))
          continue;
        ++num_candidates;
        const double pl = left_weight / known_weight;
        const double pr = right_weight / known_weight;
        const double gain =
            known_fraction * (base_entropy - pl * entropy(left_counts) -
                              pr * entropy(right_counts));
        if (gain > best_gain) {
          best_gain = gain;
          best_threshold = 0.5 * (cur.x[a] + next_val);
          // Split info charges the *three*-way partition the split actually
          // induces: left, right, and the unknown bucket.
          const double ql = left_weight / total_weight;
          const double qr = right_weight / total_weight;
          const double qm = missing_weight / total_weight;
          best_split_info = -ql * log2_safe(ql) - qr * log2_safe(qr) -
                            (qm > 0.0 ? qm * log2_safe(qm) : 0.0);
          found = true;
        }
      }

      if (!found) continue;
      // C4.5 Release-8 MDL correction: charge log2(#thresholds)/n bits for
      // having chosen among num_candidates cut points.
      if (params.mdl_correction && num_candidates > 0)
        best_gain -= std::log2(static_cast<double>(num_candidates)) /
                     total_weight;
      if (best_gain <= 0.0) continue;
      BestSplit s;
      s.attribute = a;
      s.threshold = best_threshold;
      s.gain = best_gain;
      s.gain_ratio = best_split_info > 0 ? best_gain / best_split_info : 0.0;
      candidates.push_back(s);
    }

    if (candidates.empty()) return std::nullopt;

    // C4.5's two-stage criterion: among attributes whose gain is at least
    // the average gain of all viable attributes, pick the best gain ratio.
    double avg_gain = 0.0;
    for (const auto& c : candidates) avg_gain += c.gain;
    avg_gain /= static_cast<double>(candidates.size());

    const BestSplit* best = nullptr;
    for (const auto& c : candidates) {
      if (c.gain + 1e-12 < avg_gain) continue;
      if (!best || c.gain_ratio > best->gain_ratio) best = &c;
    }
    FSML_DCHECK(best != nullptr);
    return *best;
  }
};

/// Pessimistic-error pruning: replace a subtree by a leaf when the leaf's
/// upper-bound error estimate does not exceed the subtree's.
double pessimistic_errors(const C45Tree::Node& node, double cf) {
  const double n = std::accumulate(node.class_counts.begin(),
                                   node.class_counts.end(), 0.0);
  if (node.is_leaf)
    return node.training_errors + added_errors(n, node.training_errors, cf);
  return pessimistic_errors(*node.left, cf) +
         pessimistic_errors(*node.right, cf);
}

void prune_node(C45Tree::Node& node, double cf) {
  if (node.is_leaf) return;
  prune_node(*node.left, cf);
  prune_node(*node.right, cf);
  const double n = std::accumulate(node.class_counts.begin(),
                                   node.class_counts.end(), 0.0);
  const double as_leaf =
      node.training_errors + added_errors(n, node.training_errors, cf);
  const double as_subtree = pessimistic_errors(node, cf);
  if (as_leaf <= as_subtree + 0.1) {
    node.is_leaf = true;
    node.left.reset();
    node.right.reset();
  }
}

}  // namespace

void C45Tree::train(const Dataset& data) {
  FSML_CHECK_MSG(!data.empty(), "cannot train on an empty dataset");
  attribute_names_ = data.attribute_names();
  class_names_ = data.class_names();
  trained_num_classes_ = data.num_classes();

  std::vector<Item> items(data.size());
  for (std::size_t i = 0; i < items.size(); ++i)
    items[i] = Item{i, data.at(i).weight};
  Builder builder{data, params_};
  root_ = builder.build(items, 0);
  if (params_.prune) prune_node(*root_, kConfidenceFactor);
}

namespace {

/// Adds this subtree's class distribution for `x`, scaled by `weight`. A
/// node testing a missing attribute forwards the instance down both
/// branches in proportion to the training weight each branch received.
void accumulate_distribution(const C45Tree::Node& node,
                             std::span<const double> x, double weight,
                             std::span<double> out) {
  if (node.is_leaf) {
    const double total = std::accumulate(node.class_counts.begin(),
                                         node.class_counts.end(), 0.0);
    if (total > 0) {
      for (std::size_t i = 0; i < out.size(); ++i)
        out[i] += weight * node.class_counts[i] / total;
    } else {
      for (double& o : out) o += weight / static_cast<double>(out.size());
    }
    return;
  }
  const double v = x[node.attribute];
  if (is_missing(v)) {
    const double lw = std::accumulate(node.left->class_counts.begin(),
                                      node.left->class_counts.end(), 0.0);
    const double rw = std::accumulate(node.right->class_counts.begin(),
                                      node.right->class_counts.end(), 0.0);
    const double total = lw + rw;
    const double left_share = total > 0 ? lw / total : 0.5;
    accumulate_distribution(*node.left, x, weight * left_share, out);
    accumulate_distribution(*node.right, x, weight * (1.0 - left_share),
                            out);
    return;
  }
  accumulate_distribution(v <= node.threshold ? *node.left : *node.right, x,
                          weight, out);
}

}  // namespace

int C45Tree::predict(std::span<const double> x) const {
  FSML_CHECK_MSG(root_ != nullptr, "C45Tree is not trained");
  FSML_CHECK_MSG(x.size() >= attribute_names_.size(),
                 "feature vector shorter than the training schema");
  const Node* node = root_.get();
  while (!node->is_leaf) {
    const double v = x[node->attribute];
    if (is_missing(v)) {
      // Fractional descent from here on; argmax of the combined
      // distribution (ties resolve to the lowest class index, like
      // max_element over class_counts does on the fast path). Up to 16
      // classes accumulate on the stack.
      const std::size_t k = root_->class_counts.size();
      double inline_buf[16];
      std::vector<double> heap_buf(k > 16 ? k : 0);
      const std::span<double> dist(k > 16 ? heap_buf.data() : inline_buf, k);
      std::fill(dist.begin(), dist.end(), 0.0);
      accumulate_distribution(*node, x, 1.0, dist);
      return static_cast<int>(std::distance(
          dist.begin(), std::max_element(dist.begin(), dist.end())));
    }
    node = v <= node->threshold ? node->left.get() : node->right.get();
  }
  return node->predicted_class;
}

std::vector<double> C45Tree::distribution(std::span<const double> x) const {
  FSML_CHECK_MSG(root_ != nullptr, "C45Tree is not trained");
  FSML_CHECK_MSG(x.size() >= attribute_names_.size(),
                 "feature vector shorter than the training schema");
  std::vector<double> dist(root_->class_counts.size(), 0.0);
  accumulate_distribution(*root_, x, 1.0, dist);
  return dist;
}

namespace {

void describe_node(const C45Tree::Node& node,
                   const std::vector<std::string>& attribute_names,
                   const std::vector<std::string>& class_names,
                   const std::string& indent, std::ostringstream& os) {
  const auto leaf_text = [&](const C45Tree::Node& leaf) {
    const double total = std::accumulate(leaf.class_counts.begin(),
                                         leaf.class_counts.end(), 0.0);
    std::ostringstream t;
    t << class_names[static_cast<std::size_t>(leaf.predicted_class)] << " ("
      << total;
    if (leaf.training_errors > 0) t << '/' << leaf.training_errors;
    t << ')';
    return t.str();
  };
  const auto child = [&](const C45Tree::Node& c, const std::string& test) {
    os << indent << attribute_names[node.attribute] << ' ' << test << ' '
       << node.threshold;
    if (c.is_leaf) {
      os << ": " << leaf_text(c) << '\n';
    } else {
      os << '\n';
      describe_node(c, attribute_names, class_names, indent + "|   ", os);
    }
  };
  child(*node.left, "<=");
  child(*node.right, ">");
}

}  // namespace

std::string C45Tree::describe() const {
  std::ostringstream os;
  if (!root_) return "(untrained)\n";
  if (root_->is_leaf) {
    os << class_names_[static_cast<std::size_t>(root_->predicted_class)]
       << " (all)\n";
    return os.str();
  }
  describe_node(*root_, attribute_names_, class_names_, "", os);
  os << "\nNumber of Leaves  : " << num_leaves() << '\n';
  os << "Size of the tree  : " << num_nodes() << '\n';
  return os.str();
}

std::size_t C45Tree::num_leaves() const {
  return root_ ? root_->count_leaves() : 0;
}

std::size_t C45Tree::num_nodes() const {
  return root_ ? root_->count_nodes() : 0;
}

namespace {

void collect_attributes(const C45Tree::Node& node,
                        std::vector<std::size_t>& out) {
  if (node.is_leaf) return;
  if (std::find(out.begin(), out.end(), node.attribute) == out.end())
    out.push_back(node.attribute);
  collect_attributes(*node.left, out);
  collect_attributes(*node.right, out);
}

void save_node(const C45Tree::Node& node, std::ostream& os) {
  if (node.is_leaf) {
    os << "L " << node.predicted_class << ' ' << node.class_counts.size();
    for (const double c : node.class_counts) os << ' ' << c;
    os << ' ' << node.training_errors << '\n';
    return;
  }
  os << "N " << node.attribute << ' ' << node.threshold << '\n';
  save_node(*node.left, os);
  save_node(*node.right, os);
}

/// What a loaded tree must fit: predict() reads x[attribute] and the vote
/// loop counts votes[predicted_class], so a payload naming an attribute or
/// class outside its own header is rejected here rather than read out of
/// bounds later, and nesting is capped at the depth training stops at.
struct TreeShape {
  std::size_t num_attributes = 0;
  std::size_t num_classes = 0;
};

std::unique_ptr<C45Tree::Node> load_node(std::istream& is,
                                         const TreeShape& shape, int depth) {
  FSML_CHECK_MSG(depth <= C45Tree::kMaxDepth,
                 "tree nests deeper than max_depth " +
                     std::to_string(C45Tree::kMaxDepth));
  std::string kind;
  is >> kind;
  FSML_CHECK_MSG(static_cast<bool>(is), "truncated tree file");
  auto node = std::make_unique<C45Tree::Node>();
  if (kind == "L") {
    std::size_t k = 0;
    is >> node->predicted_class >> k;
    FSML_CHECK_MSG(static_cast<bool>(is), "malformed leaf record");
    FSML_CHECK_MSG(k == shape.num_classes,
                   "leaf count vector does not have one slot per class");
    FSML_CHECK_MSG(node->predicted_class >= 0 &&
                       static_cast<std::size_t>(node->predicted_class) <
                           shape.num_classes,
                   "leaf class outside the class list");
    node->class_counts.resize(k);
    for (double& c : node->class_counts) is >> c;
    is >> node->training_errors;
    FSML_CHECK_MSG(static_cast<bool>(is), "malformed leaf record");
    return node;
  }
  FSML_CHECK_MSG(kind == "N", "unknown node kind '" + kind + "'");
  node->is_leaf = false;
  is >> node->attribute >> node->threshold;
  FSML_CHECK_MSG(static_cast<bool>(is), "malformed node record");
  FSML_CHECK_MSG(node->attribute < shape.num_attributes,
                 "split on an attribute outside the attribute list");
  node->left = load_node(is, shape, depth + 1);
  node->right = load_node(is, shape, depth + 1);
  // Recompute leaf-derived fields for internal nodes.
  node->class_counts.assign(node->left->class_counts.size(), 0.0);
  for (std::size_t i = 0; i < node->class_counts.size(); ++i)
    node->class_counts[i] =
        node->left->class_counts[i] + node->right->class_counts[i];
  const auto max_it = std::max_element(node->class_counts.begin(),
                                       node->class_counts.end());
  node->predicted_class =
      static_cast<int>(std::distance(node->class_counts.begin(), max_it));
  node->training_errors =
      std::accumulate(node->class_counts.begin(), node->class_counts.end(),
                      0.0) -
      *max_it;
  return node;
}

}  // namespace

std::vector<std::size_t> C45Tree::used_attributes() const {
  std::vector<std::size_t> out;
  if (root_) collect_attributes(*root_, out);
  return out;
}

void C45Tree::save(std::ostream& os) const {
  FSML_CHECK_MSG(root_ != nullptr, "cannot save an untrained tree");
  // max_digits10 makes the text round trip exact: fractional leaf counts
  // (missing-value training splits instances fractionally) reload to the
  // same bits, so a reloaded tree predicts bit-identically.
  const std::streamsize old_precision =
      os.precision(std::numeric_limits<double>::max_digits10);
  os << "fsml-c45 v1\n";
  os << "classes " << class_names_.size();
  for (const auto& c : class_names_) os << ' ' << c;
  os << '\n';
  os << "attributes " << attribute_names_.size();
  for (const auto& a : attribute_names_) os << ' ' << a;
  os << '\n';
  save_node(*root_, os);
  os.precision(old_precision);
}

C45Tree C45Tree::load(std::istream& is) {
  std::string magic, version;
  is >> magic >> version;
  FSML_CHECK_MSG(magic == "fsml-c45" && version == "v1",
                 "not a fsml-c45 v1 model file");
  C45Tree tree;
  std::string keyword;
  std::size_t count = 0;
  is >> keyword >> count;
  FSML_CHECK_MSG(keyword == "classes", "expected 'classes'");
  tree.class_names_.resize(count);
  for (auto& c : tree.class_names_) is >> c;
  is >> keyword >> count;
  FSML_CHECK_MSG(keyword == "attributes", "expected 'attributes'");
  tree.attribute_names_.resize(count);
  for (auto& a : tree.attribute_names_) is >> a;
  FSML_CHECK_MSG(static_cast<bool>(is), "malformed model header");
  tree.root_ = load_node(
      is, TreeShape{tree.attribute_names_.size(), tree.class_names_.size()},
      0);
  tree.trained_num_classes_ = tree.class_names_.size();
  return tree;
}

}  // namespace fsml::ml
