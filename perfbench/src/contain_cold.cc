// contain_cold: distinct (α, β) containment pairs, submitted as text to
// `Session::Contains`, so the verdict cache never hits. The nine slices:
//
//   seeded generator draws, no schema      CoreXPath(*,≈), (*,∩), ↓(∩),
//                                          vertical-conjunctive
//   ↓(∩) draws under a generated EDTD and under a chain EDTD
//   chains down[a]^n ⊆ {down, down/down[b], down*[a]}, n = 2..6
//
// No traffic to copy these shares from exists, so every slice gets the same
// share: a period of 45 requests holds 5 of each, a chain slice one per n,
// spread evenly. Runs end on a period boundary, so every run sees the same
// mix, and run at least kMinRequests requests, so p99 has 10 samples above
// it.

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "layers.h"
#include "trace.h"
#include "xpc/core/session.h"
#include "xpc/fuzz/generator.h"
#include "xpc/schemaindex/schema_index.h"
#include "xpc/xpath/parser.h"
#include "xpc/xpath/printer.h"

namespace perfbench {
namespace {

using namespace xpc;

enum Slice : int {
  kStarEq,      // CoreXPath(*, ≈): normal form + loop engine.
  kStarCap,     // CoreXPath(*, ∩): product translation + loop engine.
  kDownCap,     // CoreXPath↓(∩): downward engine.
  kVertical,    // Vertical-conjunctive pairs: ψ carries ¬, so no fast path.
  kEdtdGen,     // ↓(∩) under the generated EDTD.
  kEdtdChain,   // ↓(∩) under the chain EDTD.
  kChainCliff,  // down[a]^n ⊆ down/down[b].
  kChainDown,   // down[a]^n ⊆ down.
  kChainStar,   // down[a]^n ⊆ down*[a].
  kNumSlices,
};

const char* const kSliceNames[kNumSlices] = {"star_eq",   "star_cap",    "down_cap",
                                             "vertical",  "edtd_gen",    "edtd_chain",
                                             "chain_cliff", "chain_down", "chain_star"};

constexpr int kPerSlice = 5;         // Requests per slice per period: n = 2..6.
constexpr int kInitialPeriods = 24;  // Generated at set-up; more on demand.
constexpr int kMinRequests = 1000;
constexpr int kDigestRequests = 1000;

struct Pair {
  std::string alpha;
  std::string beta;
  int session;  // 0: no schema, 1: generated EDTD, 2: chain EDTD.
  Slice slice;
};

// One period: (slice, chain length) per request, slice by slice in turn;
// the k-th request of a chain slice has n = k + 2.
std::vector<std::pair<Slice, int>> PeriodSchedule() {
  std::vector<std::pair<Slice, int>> schedule;
  for (int k = 0; k < kPerSlice; ++k) {
    for (int s = 0; s < kNumSlices; ++s) schedule.emplace_back(static_cast<Slice>(s), k + 2);
  }
  return schedule;
}

class Corpus {
 public:
  explicit Corpus(uint64_t seed)
      : gen_(seed * 0x9e3779b97f4a7c15ULL + 11),
        gen_edtd_(gen_.GenEdtd(EdtdGenOptions{5, {"a", "b", "c"}, false})),
        chain_edtd_(ChainEdtd(8, /*star=*/true)),
        chain_label_(static_cast<int64_t>(gen_.NextBelow(1u << 20))),
        schedule_(PeriodSchedule()) {
    options_[kStarEq] = ExprGenOptions::RegularFriendly();
    options_[kStarEq].max_ops = 3;
    options_[kStarCap] = ExprGenOptions::WithIntersect();
    options_[kStarCap].max_ops = 3;
    options_[kDownCap] = ExprGenOptions::DownwardIntersect();
    options_[kDownCap].max_ops = 6;
    options_[kVertical] = ExprGenOptions::VerticalConjunctive();
    options_[kVertical].max_ops = 3;
    options_[kEdtdGen] = ExprGenOptions::DownwardIntersect();
    options_[kEdtdGen].max_ops = 6;
    options_[kEdtdChain] = ExprGenOptions::DownwardIntersect();
    options_[kEdtdChain].max_ops = 6;
    options_[kEdtdChain].labels = {"t0", "t1", "t2", "t3"};
  }

  const Edtd& gen_edtd() const { return gen_edtd_; }
  const Edtd& chain_edtd() const { return chain_edtd_; }

  std::vector<Pair> NextPeriod() {
    std::vector<Pair> period;
    period.reserve(schedule_.size());
    for (const auto& [slice, n] : schedule_) period.push_back(Draw(slice, n));
    return period;
  }

 private:
  Pair Draw(Slice slice, int n) {
    if (slice == kChainCliff || slice == kChainDown || slice == kChainStar) {
      // Fresh labels per pair keep the text distinct; the cost does not
      // depend on label names.
      const std::string a = "k" + std::to_string(chain_label_);
      const std::string b = "m" + std::to_string(chain_label_);
      ++chain_label_;
      std::string alpha;
      for (int i = 0; i < n; ++i) alpha += (i ? "/down[" : "down[") + a + "]";
      const std::string beta = slice == kChainCliff  ? "down/down[" + b + "]"
                               : slice == kChainDown ? "down"
                                                     : "down*[" + a + "]";
      return {alpha, beta, 0, slice};
    }
    const int session = slice == kEdtdGen ? 1 : slice == kEdtdChain ? 2 : 0;
    for (;;) {
      std::string alpha = ToString(gen_.GenPath(options_[slice]));
      std::string beta = ToString(gen_.GenPath(options_[slice]));
      if (seen_.insert(std::to_string(session) + "\n" + alpha + "\n" + beta).second) {
        return {std::move(alpha), std::move(beta), session, slice};
      }
    }
  }

  FuzzGen gen_;
  Edtd gen_edtd_;
  Edtd chain_edtd_;
  int64_t chain_label_;
  std::vector<std::pair<Slice, int>> schedule_;
  ExprGenOptions options_[kNumSlices];
  std::unordered_set<std::string> seen_;
};

struct World {
  std::unique_ptr<Corpus> corpus;
  std::vector<std::vector<Pair>> periods;
  std::unique_ptr<Session> sessions[3];
};

// Corpus generation, Sessions and schema-index builds.
World SetUp(uint64_t seed, Tracer* tracer) {
  SchemaIndex::ClearRegistry();
  World w;
  w.corpus = std::make_unique<Corpus>(seed);
  for (int p = 0; p < kInitialPeriods; ++p) w.periods.push_back(w.corpus->NextPeriod());
  for (auto& s : w.sessions) s = std::make_unique<Session>(MakeSessionOptions());
  const Edtd* edtds[3] = {nullptr, &w.corpus->gen_edtd(), &w.corpus->chain_edtd()};
  for (int i = 1; i < 3; ++i) {
    AcquireIndex(*edtds[i], tracer);
    w.sessions[i]->SetEdtd(*edtds[i]);
  }
  return w;
}

struct Outcome {
  ContainmentVerdict verdict;
  std::optional<XmlTree> counterexample;
};

// Independent checks of every answer; returns the number of unknowns.
int64_t CheckAll(const World& w, const std::vector<const Pair*>& pairs,
                 const std::vector<Outcome>& outcomes, uint64_t seed, Report* report) {
  int64_t unknown = 0;
  Digest digest;
  for (size_t i = 0; i < outcomes.size(); ++i) {
    const Pair& q = *pairs[i];
    const Outcome& o = outcomes[i];
    if (i < kDigestRequests) digest.Add(static_cast<uint64_t>(o.verdict));
    if (o.verdict == ContainmentVerdict::kUnknown) {
      ++unknown;
      continue;
    }
    const std::string why = CheckContainment(
        ParsePath(q.alpha).value(), ParsePath(q.beta).value(), w.sessions[q.session]->edtd(),
        o.verdict, o.counterexample, seed ^ (i * 0x9e3779b97f4a7c15ULL));
    if (!why.empty()) report->Wrong(q.alpha + " <= " + q.beta + ": " + why);
  }
  std::printf("verdict digest (first %lld requests): %016llx\n",
              static_cast<long long>(digest.items), static_cast<unsigned long long>(digest.h));
  return unknown;
}

// True while the run is below its request floor or the clock runs.
bool KeepGoing(LoopClock* clock, size_t requests) {
  const bool running = clock->Running(NowNs());
  return running || requests < kMinRequests;
}

}  // namespace

void ContainColdUntraced(const RunConfig& config, Report* report) {
  const int64_t t0 = NowNs();
  World w = SetUp(config.seed, nullptr);
  LoopClock clock(config.seconds, (NowNs() - t0) / 1e9, [&] { SetUp(config.seed, nullptr); });

  std::vector<float> latency_us;
  std::vector<Outcome> outcomes;
  // Pointers into `w.periods`: growing the outer vector moves the inner
  // vectors, which keeps their element buffers in place.
  std::vector<const Pair*> pairs;
  for (size_t p = 0; p == 0 || KeepGoing(&clock, pairs.size()); ++p) {
    if (p == w.periods.size()) clock.Paused([&] { w.periods.push_back(w.corpus->NextPeriod()); });
    for (const Pair& q : w.periods[p]) {
      const int64_t t0 = NowNs();
      Result<PathPtr> alpha = ParsePath(q.alpha);
      Result<PathPtr> beta = ParsePath(q.beta);
      if (!alpha.ok() || !beta.ok()) throw std::runtime_error("unparsable pair: " + q.alpha);
      ContainmentResult r = w.sessions[q.session]->Contains(alpha.value(), beta.value());
      latency_us.push_back(static_cast<float>((NowNs() - t0) / 1e3));
      outcomes.push_back({r.verdict, std::move(r.counterexample)});
      pairs.push_back(&q);
    }
  }
  const double wall_s = clock.Seconds();

  // Per-slice latency, for reading the run.
  std::vector<float> by_slice[kNumSlices];
  for (size_t i = 0; i < pairs.size(); ++i) by_slice[pairs[i]->slice].push_back(latency_us[i]);
  for (int s = 0; s < kNumSlices; ++s) {
    std::printf("slice %-11s requests %6zu  p50 %10.1f us  mean %10.1f us  max %10.1f us\n",
                kSliceNames[s], by_slice[s].size(), Median(by_slice[s]), Mean(by_slice[s]),
                Quantile(by_slice[s], 1.0));
  }

  const int64_t unknown = CheckAll(w, pairs, outcomes, config.seed, report);
  report->attempted = static_cast<int64_t>(outcomes.size());
  report->failed = unknown;
  Samples latency;
  for (float us : latency_us) latency.Add(us);
  SetRequestMetrics(report, latency, wall_s);
  report->Set("decided_ratio",
              1.0 - static_cast<double>(unknown) / static_cast<double>(outcomes.size()));
  report->Set("setup_s", clock.MedianSetupSeconds());
}

void ContainColdTraced(const RunConfig& config, Report* report) {
  Tracer tracer;
  World w = SetUp(config.seed, &tracer);
  TracedSolver traced(MakeSessionOptions().solver, &tracer);

  std::vector<Outcome> outcomes;
  std::vector<const Pair*> pairs;
  Overhead overhead;
  int64_t hits = 0;
  const int64_t deadline = NowNs() + static_cast<int64_t>(config.seconds) * 1000000000;
  for (size_t p = 0;; ++p) {
    if (p == w.periods.size()) w.periods.push_back(w.corpus->NextPeriod());
    for (const Pair& q : w.periods[p]) {
      Session& session = *w.sessions[q.session];
      const int64_t id = static_cast<int64_t>(outcomes.size());
      // Untraced reference: the answer the traced path must reproduce.
      ContainmentResult ref;
      bool hit = false;
      auto run_reference = [&] {
        const int64_t hits_before = session.stats().containment.hits;
        const int64_t t0 = NowNs();
        ref = session.Contains(ParsePath(q.alpha).value(), ParsePath(q.beta).value());
        overhead.untraced_ns[TracedFirst(id)] += NowNs() - t0;
        hit = session.stats().containment.hits > hits_before;
      };
      // Every pair is distinct, so a request the traced path runs first is
      // a cache miss.
      ContainmentResult r;
      auto run_traced = [&] {
        tracer.BeginRequest(id);
        PathPtr alpha, beta;
        {
          Tracer::Scope span(&tracer, Layer::kParse);
          alpha = ParsePath(q.alpha).value();
        }
        {
          Tracer::Scope span(&tracer, Layer::kParse);
          beta = ParsePath(q.beta).value();
        }
        {
          Tracer::Scope span(&tracer, Layer::kIntern);
          alpha = session.Intern(alpha);
        }
        {
          Tracer::Scope span(&tracer, Layer::kIntern);
          beta = session.Intern(beta);
        }
        if (hit) {
          Tracer::Scope span(&tracer, Layer::kSessionHit);
          r = session.Contains(alpha, beta);
        } else {
          r = traced.Contains(alpha, beta, session.edtd());
        }
        overhead.traced_ns[TracedFirst(id)] += tracer.EndRequest();
        if (!hit) traced.FinishRequest(alpha, beta);
      };
      if (TracedFirst(id)) {
        run_traced();
        run_reference();
      } else {
        run_reference();
        run_traced();
      }
      hits += hit;

      if (r.verdict != ref.verdict || r.engine != ref.engine ||
          r.explored_states != ref.explored_states) {
        report->Wrong("trace fidelity: " + q.alpha + " <= " + q.beta + ": untraced " +
                      ContainmentVerdictName(ref.verdict) + " [" + ref.engine + "], traced " +
                      ContainmentVerdictName(r.verdict) + " [" + r.engine + "]");
      }
      outcomes.push_back({r.verdict, std::move(r.counterexample)});
      pairs.push_back(&q);
    }
    if (NowNs() >= deadline) break;
  }

  const int64_t unknown = CheckAll(w, pairs, outcomes, config.seed, report);
  const int64_t requests = static_cast<int64_t>(outcomes.size());
  report->attempted = requests;
  report->failed = unknown;
  ReportLayers(tracer, traced.counts(), report);
  report->Set("core.session_hit_ratio", static_cast<double>(hits) / requests);
  FinishTrace(config, tracer, overhead, requests, report);
}

}  // namespace perfbench
