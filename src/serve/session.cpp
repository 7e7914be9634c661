#include "serve/session.hpp"

#include <array>
#include <cmath>
#include <unordered_map>

#include "pmu/events.hpp"
#include "pmu/noise.hpp"

namespace fsml::serve {

namespace {

/// Table-2 event lookup by wire name; nullopt for unknown events.
std::optional<pmu::WestmereEvent> event_by_name(std::string_view name) {
  static const std::unordered_map<std::string_view, pmu::WestmereEvent>
      by_name = [] {
        std::unordered_map<std::string_view, pmu::WestmereEvent> table;
        for (const pmu::EventInfo& info : pmu::westmere_event_table())
          table.emplace(info.name, info.id);
        return table;
      }();
  const auto it = by_name.find(name);
  if (it == by_name.end()) return std::nullopt;
  return it->second;
}

ValidatedBatch reject(BatchStatus status, std::string detail) {
  ValidatedBatch out;
  out.status = status;
  out.detail = std::move(detail);
  return out;
}

}  // namespace

ValidatedBatch validate_batch(const SampleBatch& batch) {
  if (batch.empty())
    return reject(BatchStatus::kUnusable, "empty batch");

  // Full-width Westmere counters are 48 bits; anything beyond is not a
  // count this PMU could have produced.
  constexpr double kMaxCount = 0x1p48;

  pmu::DegradedSnapshot snapshot;
  std::array<bool, pmu::kNumWestmereEvents> seen{};
  for (const Sample& sample : batch) {
    const auto event = event_by_name(sample.event);
    if (!event)
      return reject(BatchStatus::kMalformed,
                    "unknown event '" + sample.event + "'");
    const auto slot = static_cast<std::size_t>(*event);
    if (seen[slot])
      return reject(BatchStatus::kMalformed,
                    "duplicate event '" + sample.event + "'");
    seen[slot] = true;
    if (!std::isfinite(sample.count))
      return reject(BatchStatus::kMalformed,
                    "non-finite count for '" + sample.event + "'");
    if (sample.count < 0.0)
      return reject(BatchStatus::kMalformed,
                    "negative count for '" + sample.event + "'");
    if (sample.count > kMaxCount)
      return reject(BatchStatus::kMalformed,
                    "count overflows 48-bit counter for '" + sample.event +
                        "'");
    snapshot.counts.set(*event,
                        static_cast<std::uint64_t>(std::llround(sample.count)));
    snapshot.present[slot] = true;
  }

  if (!snapshot.usable())
    return reject(BatchStatus::kUnusable,
                  "normalizer missing (Instructions_Retired absent or zero)");

  ValidatedBatch out;
  out.status = BatchStatus::kOk;
  out.features = snapshot.to_features();
  return out;
}

std::string_view to_string(Outcome outcome) {
  switch (outcome) {
    case Outcome::kVerdict: return "verdict";
    case Outcome::kAbstained: return "abstained";
    case Outcome::kShed: return "shed";
    case Outcome::kQuarantined: return "quarantined";
    case Outcome::kExpired: return "expired";
    case Outcome::kCancelled: return "cancelled";
  }
  return "abstained";
}

std::string SessionRecord::to_string() const {
  std::string s =
      std::to_string(id) + ":" + std::string(serve::to_string(outcome));
  if (outcome == Outcome::kVerdict)
    s += ":" + std::string(trainers::to_string(verdict.mode)) + ":" +
         std::to_string(verdict.votes[0]) + "/" +
         std::to_string(verdict.votes[1]) + "/" +
         std::to_string(verdict.votes[2]);
  else
    s += ":unknown";
  return s;
}

}  // namespace fsml::serve
