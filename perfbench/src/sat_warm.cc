// sat_warm: node-satisfiability text submissions drawn with Zipf-skewed
// repeats from a pool of distinct queries, so most submissions hit the
// Session's verdict cache. The pool is mostly downward chains and
// vertical-conjunctive queries (the PTIME fast paths' shapes) under no
// schema and under two schemas loaded at set-up, plus 5% CoreXPath↓(∩)
// queries that need the downward engine on their first submission.
//
// The pool size fits the default verdict cache. The shares (9 chains, 10
// vertical, 1 ↓(∩) per 20) and the Zipf exponent are not measured from any
// traffic; they follow the shape the workload asks for (mostly fast-path
// queries, mildly skewed repeats) and were not tuned to any figure.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "layers.h"
#include "trace.h"
#include "xpc/classify/profile.h"
#include "xpc/core/session.h"
#include "xpc/fuzz/generator.h"
#include "xpc/schemaindex/schema_index.h"
#include "xpc/xpath/parser.h"
#include "xpc/xpath/printer.h"

namespace perfbench {
namespace {

using namespace xpc;

constexpr int kPoolSize = 3000;       // Fits the default 4096-entry verdict cache.
constexpr int kScheduleLen = 1 << 20;  // Submission indices, replayed cyclically.
constexpr double kZipfExponent = 0.6;
constexpr int kChainSchemaDepth = 32;
constexpr int64_t kDigestRequests = 100000;

struct Query {
  std::string text;
  int session;  // 0: no schema, 1: generated linear schema, 2: chain schema.
};

// A downward chain <down[x]/down*[y and z]/...>, optionally behind a label
// test, over `labels`.
std::string ChainText(FuzzGen& gen, const std::vector<std::string>& labels) {
  auto label = [&] { return labels[gen.NextBelow(labels.size())]; };
  std::string text = gen.NextBelow(3) == 0 ? label() + " and <" : "<";
  const int steps = 1 + static_cast<int>(gen.NextBelow(5));
  for (int i = 0; i < steps; ++i) {
    if (i) text += "/";
    text += gen.NextBelow(3) == 0 ? "down*" : "down";
    switch (gen.NextBelow(3)) {
      case 0: break;
      case 1: text += "[" + label() + "]"; break;
      default: text += "[" + label() + " and " + label() + "]"; break;
    }
  }
  return text + ">";
}

// A chain along the chain schema t0 := t1, t1 := t2, ...; a stride of 2
// skips a generation, which makes the query unsatisfiable.
std::string SchemaChainText(FuzzGen& gen) {
  const int len = 2 + static_cast<int>(gen.NextBelow(6));
  const int stride = gen.NextBelow(5) == 0 ? 2 : 1;
  const int from = static_cast<int>(gen.NextBelow(kChainSchemaDepth - len * stride));
  std::string text = "<";
  for (int i = 0; i < len; ++i) {
    if (i) text += "/";
    text += "down[t" + std::to_string(from + i * stride) + "]";
  }
  return text + ">";
}

bool RoutesToFastPath(const Query& q, const std::vector<Edtd>& schemas) {
  const FragmentProfile profile = ClassifyNode(ParseNode(q.text).value());
  if (q.session == 0) return SelectFastPath(profile, nullptr) != FastPathRoute::kNone;
  const SchemaClass schema = ClassifySchema(schemas[q.session - 1]);
  return SelectFastPath(profile, &schema) != FastPathRoute::kNone;
}

struct World {
  std::vector<Query> pool;
  std::vector<int32_t> schedule;
  std::vector<Edtd> schemas;  // Linear schema, chain schema.
  std::unique_ptr<Session> sessions[3];
};

World SetUp(uint64_t seed, Tracer* tracer) {
  SchemaIndex::ClearRegistry();
  World w;
  FuzzGen gen(seed * 0x9e3779b97f4a7c15ULL + 23);
  EdtdGenOptions linear;
  linear.num_types = 8;
  linear.concrete_labels = {"a", "b", "c", "d"};
  linear.linear_content = true;
  w.schemas.push_back(gen.GenEdtd(linear));
  w.schemas.push_back(ChainEdtd(kChainSchemaDepth, /*star=*/false));

  const std::vector<std::string> labels = {"a", "b", "c", "d"};
  ExprGenOptions vertical = ExprGenOptions::VerticalConjunctive();
  vertical.max_ops = 6;
  vertical.labels = labels;
  ExprGenOptions down_cap = ExprGenOptions::DownwardIntersect();
  down_cap.max_ops = 5;
  down_cap.labels = labels;
  std::unordered_set<std::string> seen;
  for (int i = 0; static_cast<int>(w.pool.size()) < kPoolSize; ++i) {
    // Per 20 queries: 9 chains (no schema / linear / chain schema), 10
    // vertical-conjunctive (no schema / linear), 1 ↓(∩) (no schema).
    const int r = i % 20;
    Query q;
    if (r < 9) {
      q.session = r % 3;
      q.text = q.session == 2 ? SchemaChainText(gen) : ChainText(gen, labels);
    } else if (r < 19) {
      q.session = r % 2;
      q.text = ToString(gen.GenNode(vertical));
    } else {
      q.session = 0;
      q.text = ToString(gen.GenNode(down_cap));
    }
    // Chains and vertical queries must take a fast path: outside it, an
    // upward step under an EDTD goes to the Prop. 6 encoding, which runs
    // out of memory (see perfbench/README.md, "Excluded inputs").
    if (r < 19 && !RoutesToFastPath(q, w.schemas)) continue;
    if (seen.insert(std::to_string(q.session) + q.text).second) w.pool.push_back(std::move(q));
  }

  // Zipf over a seeded permutation of the pool, sampled by inverse CDF.
  std::vector<int32_t> order(kPoolSize);
  for (int i = 0; i < kPoolSize; ++i) order[i] = i;
  for (int i = kPoolSize - 1; i > 0; --i) std::swap(order[i], order[gen.NextBelow(i + 1)]);
  std::vector<double> cdf(kPoolSize);
  double total = 0;
  for (int k = 0; k < kPoolSize; ++k) cdf[k] = total += std::pow(k + 1.0, -kZipfExponent);
  w.schedule.resize(kScheduleLen);
  for (int32_t& s : w.schedule) {
    const double u = static_cast<double>(gen.NextBelow(1ULL << 53)) / (1ULL << 53) * total;
    s = order[std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin()];
  }

  for (auto& s : w.sessions) s = std::make_unique<Session>(MakeSessionOptions());
  for (int i = 0; i < 2; ++i) {
    AcquireIndex(w.schemas[i], tracer);
    w.sessions[i + 1]->SetEdtd(w.schemas[i]);
  }
  return w;
}

// The first answer to each pool query; later answers must repeat it.
struct Answer {
  bool seen = false;
  SolveStatus status = SolveStatus::kResourceLimit;
  std::string engine;
  std::optional<XmlTree> witness;
};

// Records `r` as the answer to pool query `idx`, or compares it with the
// recorded one.
void Record(const World& w, int32_t idx, SatResult& r, std::vector<Answer>* answers,
            Report* report) {
  Answer& a = (*answers)[idx];
  if (!a.seen) {
    a = {true, r.status, std::move(r.engine), std::move(r.witness)};
  } else if (a.status != r.status || a.engine != r.engine) {
    report->Wrong("repeat answer differs: " + w.pool[idx].text);
  }
}

// Independent checks of every distinct answer.
void CheckAll(const World& w, const std::vector<Answer>& answers, uint64_t seed,
              Report* report) {
  for (size_t i = 0; i < answers.size(); ++i) {
    const Answer& a = answers[i];
    if (!a.seen) continue;
    const Query& q = w.pool[i];
    const std::string why = CheckSat(ParseNode(q.text).value(), w.sessions[q.session]->edtd(),
                                     a.status, a.witness, seed ^ (i * 0x9e3779b97f4a7c15ULL));
    if (!why.empty()) report->Wrong(q.text + ": " + why);
  }
}

void PrintDigest(const World& w, const std::vector<Answer>& answers, int64_t requests) {
  Digest digest;
  for (int64_t i = 0; i < std::min(requests, kDigestRequests); ++i) {
    digest.Add(static_cast<uint64_t>(answers[w.schedule[i % kScheduleLen]].status));
  }
  std::printf("verdict digest (first %lld requests): %016llx\n",
              static_cast<long long>(digest.items), static_cast<unsigned long long>(digest.h));
}

}  // namespace

void SatWarmUntraced(const RunConfig& config, Report* report) {
  const int64_t t0 = NowNs();
  World w = SetUp(config.seed, nullptr);
  LoopClock clock(config.seconds, (NowNs() - t0) / 1e9, [&] { SetUp(config.seed, nullptr); });

  std::vector<Answer> answers(w.pool.size());
  Samples latency_us;
  int64_t unknown_answers = 0;
  for (int64_t i = 0;; ++i) {
    const int32_t idx = w.schedule[i % kScheduleLen];
    const Query& q = w.pool[idx];
    const int64_t t0 = NowNs();
    Result<NodePtr> phi = ParseNode(q.text);
    if (!phi.ok()) throw std::runtime_error("unparsable query: " + q.text);
    SatResult r = w.sessions[q.session]->NodeSatisfiable(phi.value());
    const int64_t t1 = NowNs();
    latency_us.Add((t1 - t0) / 1e3);
    unknown_answers += r.status == SolveStatus::kResourceLimit;
    Record(w, idx, r, &answers, report);
    if (!clock.Running(t1)) break;
  }
  const double wall_s = clock.Seconds();

  const int64_t requests = latency_us.count();
  SessionStats::Cache cache;
  for (const auto& s : w.sessions) {
    cache.hits += s->stats().sat.hits;
    cache.misses += s->stats().sat.misses;
  }
  std::printf("requests %lld, cache hits %lld, misses %lld\n", static_cast<long long>(requests),
              static_cast<long long>(cache.hits), static_cast<long long>(cache.misses));
  PrintDigest(w, answers, requests);
  CheckAll(w, answers, config.seed, report);
  report->attempted = requests;
  report->failed = unknown_answers;
  SetRequestMetrics(report, latency_us, wall_s);
  report->Set("setup_s", clock.MedianSetupSeconds());
  report->Set("decided_ratio", 1.0 - static_cast<double>(unknown_answers) / requests);
}

void SatWarmTraced(const RunConfig& config, Report* report) {
  Tracer tracer;
  World w = SetUp(config.seed, &tracer);
  TracedSolver traced(MakeSessionOptions().solver, &tracer);
  std::vector<Answer> answers(w.pool.size());
  Overhead overhead;
  int64_t hits = 0, mispredicted = 0, unknown_answers = 0, requests = 0;
  const int64_t deadline = NowNs() + static_cast<int64_t>(config.seconds) * 1000000000;
  for (int64_t i = 0; NowNs() < deadline; ++i) {
    const int32_t idx = w.schedule[i % kScheduleLen];
    const Query& q = w.pool[idx];
    Session& session = *w.sessions[q.session];
    // Untraced reference: the answer the traced path must reproduce.
    SatResult ref;
    bool hit = false;
    auto run_reference = [&] {
      const int64_t hits_before = session.stats().sat.hits;
      const int64_t t0 = NowNs();
      ref = session.NodeSatisfiable(ParseNode(q.text).value());
      overhead.untraced_ns[TracedFirst(i)] += NowNs() - t0;
      hit = session.stats().sat.hits > hits_before;
    };
    // Runs the traced path as a hit or a miss; returns whether a hit path
    // was answered from the cache.
    SatResult r;
    auto run_traced = [&](bool as_hit) {
      tracer.BeginRequest(i);
      NodePtr phi;
      {
        Tracer::Scope span(&tracer, Layer::kParse);
        phi = ParseNode(q.text).value();
      }
      {
        Tracer::Scope span(&tracer, Layer::kIntern);
        phi = session.Intern(phi);
      }
      const int64_t hits_before = session.stats().sat.hits;
      if (as_hit) {
        Tracer::Scope span(&tracer, Layer::kSessionHit);
        r = session.NodeSatisfiable(phi);
      } else {
        r = traced.NodeSatisfiable(phi, session.edtd());
      }
      overhead.traced_ns[TracedFirst(i)] += tracer.EndRequest();
      if (!as_hit) traced.FinishRequest(nullptr, nullptr);
      return as_hit && session.stats().sat.hits > hits_before;
    };
    if (TracedFirst(i)) {
      // The pool fits the verdict cache, so a query answered before is a
      // hit. A predicted hit must be one; a predicted miss must leave the
      // reference a miss.
      const bool predicted = answers[idx].seen;
      const bool traced_hit = run_traced(predicted);
      run_reference();
      if (predicted) {
        mispredicted += !traced_hit;
        hit = traced_hit;
      } else {
        mispredicted += hit;
      }
    } else {
      run_reference();
      run_traced(hit);
    }
    hits += hit;

    if (r.status != ref.status || r.engine != ref.engine ||
        r.explored_states != ref.explored_states) {
      report->Wrong("trace fidelity: " + q.text + ": untraced " + SolveStatusName(ref.status) +
                    " [" + ref.engine + "], traced " + SolveStatusName(r.status) + " [" +
                    r.engine + "]");
    }
    unknown_answers += r.status == SolveStatus::kResourceLimit;
    Record(w, idx, r, &answers, report);
    ++requests;
  }

  if (mispredicted > 0) {
    std::printf("measurement fault: %lld traced-first requests took the wrong cache branch\n",
                static_cast<long long>(mispredicted));
  }
  PrintDigest(w, answers, requests);
  CheckAll(w, answers, config.seed, report);
  report->attempted = requests;
  report->failed = unknown_answers;
  ReportLayers(tracer, traced.counts(), report);
  report->Set("core.session_hit_ratio", static_cast<double>(hits) / requests);
  FinishTrace(config, tracer, overhead, requests, report);
}

}  // namespace perfbench
