// stream_route: rounds of (deploy a batch of streamable subscriptions, then
// route EDTD-conforming documents through it). A deploy runs
// BundleOptimizer::Optimize under the routing EDTD (its dedupe probes are
// containment calls on the Session), CompileBundle, and a fresh
// StreamMatcher; each document is then matched with a counting delivery
// callback. A request is one routed document; deploys sit between them in
// the loop, so deploy work shows in throughput_qps and matching work in the
// per-document latencies.
//
// Documents are sampled from the routing EDTD at the sampler's natural
// sizes, as bench/bench_stream.cc samples its corpus. The batch size, its
// share of repeats and the documents per deploy are not measured from any
// traffic; they were not tuned to any figure.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "trace.h"
#include "xpc/core/session.h"
#include "xpc/edtd/conformance.h"
#include "xpc/eval/evaluator.h"
#include "xpc/fuzz/generator.h"
#include "xpc/schemaindex/schema_index.h"
#include "xpc/stream/bundle_optimizer.h"
#include "xpc/stream/stream_compile.h"
#include "xpc/stream/stream_event.h"
#include "xpc/stream/stream_matcher.h"

namespace perfbench {
namespace {

using namespace xpc;

constexpr int kBatch = 48;          // Subscriptions per deploy.
constexpr int kBatchDistinct = 24;  // Fresh draws per batch; the rest repeat them.
constexpr int kDocsPerRound = 48;   // Documents routed after each deploy.
// The routed corpus, replayed cyclically: conforming documents until their
// events reach kCorpusEvents, each within kMaxDocNodes nodes; both figures
// are bench_stream's.
constexpr int64_t kCorpusEvents = 1000000;
constexpr int kMaxDocNodes = 2000;
constexpr int kVerifyDocs = 16;     // Small documents for the Evaluator comparison.
constexpr int kVerifyDocNodes = 40;
constexpr int kBatches = 32;        // Distinct batches, deployed cyclically.
constexpr int kDigestRounds = 4;

// The routing schema of bench/bench_stream.cc: a feed of channels of
// nested items.
Edtd RoutingEdtd() {
  return Edtd::Parse(
             "Feed -> feed := Channel*\n"
             "Channel -> channel := Meta? Item*\n"
             "Meta -> meta := epsilon\n"
             "Item -> item := Title? Body? Item*\n"
             "Title -> title := epsilon\n"
             "Body -> body := Para* Tag*\n"
             "Para -> para := epsilon\n"
             "Tag -> tag := epsilon\n")
      .value();
}

struct Document {
  XmlTree tree;
  std::vector<StreamEvent> events;
};

// kBatches batches of kBatch subscriptions: kBatchDistinct fresh draws each,
// padded with repeats of them (structural duplicates, as in real
// subscription sets).
std::vector<std::vector<PathPtr>> DrawBatches(uint64_t seed) {
  FuzzGen gen(seed * 0x9e3779b97f4a7c15ULL + 37);
  ExprGenOptions options = ExprGenOptions::Streamable();
  options.max_ops = 6;
  options.labels = {"feed", "channel", "item", "title", "body", "para", "tag", "meta"};
  std::vector<std::vector<PathPtr>> batches(kBatches);
  for (std::vector<PathPtr>& batch : batches) {
    for (int i = 0; i < kBatchDistinct; ++i) batch.push_back(gen.GenPath(options));
    while (batch.size() < kBatch) batch.push_back(batch[gen.NextBelow(kBatchDistinct)]);
  }
  return batches;
}

struct World {
  Edtd edtd = RoutingEdtd();
  std::vector<std::vector<PathPtr>> batches;
  std::vector<std::vector<StreamEvent>> corpus;  // Routed documents' events.
  std::vector<Document> verify_docs;

  // The events of the k-th document of a round.
  const std::vector<StreamEvent>& RoundDocument(size_t round, int k) const {
    return corpus[(round * kDocsPerRound + k) % corpus.size()];
  }
};

Document MakeDocument(XmlTree tree) {
  std::vector<StreamEvent> events = EventsOf(tree, /*text_at_leaves=*/true);
  return {std::move(tree), std::move(events)};
}

// Conforming documents of at most `max_nodes` nodes each, until there are
// `max_docs` of them or their events reach `min_events`.
std::vector<Document> SampleDocuments(const Edtd& edtd, int max_nodes, uint64_t seed,
                                      size_t max_docs, int64_t min_events) {
  std::vector<Document> docs;
  int64_t events = 0;
  for (uint64_t s = seed; docs.size() < max_docs && events < min_events; ++s) {
    auto [ok, tree] = SampleConformingTree(edtd, max_nodes, s);
    if (!ok) continue;
    docs.push_back(MakeDocument(std::move(tree)));
    events += static_cast<int64_t>(docs.back().events.size());
  }
  return docs;
}

// Batches, documents, and the routing schema's index build. Deploys find
// the index in the registry.
World SetUp(uint64_t seed, Tracer* tracer) {
  SchemaIndex::ClearRegistry();
  World w;
  w.batches = DrawBatches(seed);
  const uint64_t doc_seed = seed * 1000003ULL;
  for (Document& doc : SampleDocuments(w.edtd, kMaxDocNodes, doc_seed, SIZE_MAX, kCorpusEvents)) {
    w.corpus.push_back(std::move(doc.events));
  }
  w.verify_docs =
      SampleDocuments(w.edtd, kVerifyDocNodes, doc_seed + 7777777, kVerifyDocs, INT64_MAX);
  AcquireIndex(w.edtd, tracer);
  return w;
}

// A deployed bundle: the Session its optimizer probed, the verdicts, the
// compiled automaton and a matcher over it (the matcher points into the
// bundle, so both live here).
struct Deployment {
  std::unique_ptr<Session> session;
  OptimizedBundle optimized;
  CompiledBundle bundle;
  std::unique_ptr<StreamMatcher> matcher;
  int64_t deliveries = 0;
  uint64_t checksum = 0;
};

// A fresh Session under the routing EDTD → optimize → compile → fresh
// matcher. Every deploy starts cold, so every round costs the same work and
// memory does not grow with the number of rounds.
std::unique_ptr<Deployment> Deploy(const Edtd& edtd, const std::vector<PathPtr>& batch,
                                   Tracer* tracer) {
  auto d = std::make_unique<Deployment>();
  d->session = std::make_unique<Session>(MakeSessionOptions());
  d->session->SetEdtd(edtd);
  {
    std::optional<Tracer::Scope> span;
    if (tracer) span.emplace(tracer, Layer::kOptimize);
    d->optimized = BundleOptimizer(d->session.get()).Optimize(batch);
  }
  {
    std::optional<Tracer::Scope> span;
    if (tracer) span.emplace(tracer, Layer::kCompile);
    d->bundle = CompileBundle(d->optimized.compile_set, d->optimized.num_queries);
  }
  {
    std::optional<Tracer::Scope> span;
    if (tracer) span.emplace(tracer, Layer::kMatcherNew);
    d->matcher = std::make_unique<StreamMatcher>(&d->bundle);
    Deployment* raw = d.get();
    d->matcher->SetCallback([raw](int32_t query, int64_t node) {
      ++raw->deliveries;
      raw->checksum += (static_cast<uint64_t>(query) + 1) * (static_cast<uint64_t>(node) + 7);
    });
  }
  return d;
}

void Route(StreamMatcher* matcher, const std::vector<StreamEvent>& events) {
  matcher->BeginDocument();
  for (const StreamEvent& e : events) {
    switch (e.kind) {
      case StreamEventKind::kStartElement:
        matcher->StartElement(e.label);
        break;
      case StreamEventKind::kEndElement:
        matcher->EndElement();
        break;
      case StreamEventKind::kText:
        matcher->Text();
        break;
    }
  }
  if (!matcher->EndDocument()) throw std::runtime_error("unbalanced document");
}

// Deliveries on a small document must equal, per registered query, the
// Evaluator's set of nodes n with (root, n) in the query's relation.
bool DeliveriesMatchEvaluator(Deployment* d, const std::vector<PathPtr>& batch,
                              const Document& doc) {
  std::vector<std::pair<int32_t, int64_t>> got = d->matcher->MatchStream(doc.events);
  // Preorder rank of each node, as the matcher numbers them.
  std::vector<int64_t> rank(doc.tree.size());
  int64_t next = 0;
  std::vector<NodeId> stack = {doc.tree.root()};
  while (!stack.empty()) {
    const NodeId n = stack.back();
    stack.pop_back();
    rank[n] = next++;
    std::vector<NodeId> kids = doc.tree.Children(n);
    for (auto it = kids.rbegin(); it != kids.rend(); ++it) stack.push_back(*it);
  }
  std::vector<std::pair<int32_t, int64_t>> want;
  Evaluator ev(doc.tree);
  for (int32_t q = 0; q < static_cast<int32_t>(batch.size()); ++q) {
    const Relation rel = ev.EvalPath(batch[q]);
    for (NodeId n = 0; n < doc.tree.size(); ++n) {
      if (rel.Contains(doc.tree.root(), n)) want.emplace_back(q, rank[n]);
    }
  }
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  return got == want;
}

// Labels a streamable query mentions; its filters are label booleans.
void CollectLabels(const NodePtr& n, std::set<std::string>* out) {
  switch (n->kind) {
    case NodeKind::kLabel:
      out->insert(n->label);
      return;
    case NodeKind::kNot:
      CollectLabels(n->child1, out);
      return;
    case NodeKind::kAnd:
    case NodeKind::kOr:
      CollectLabels(n->child1, out);
      CollectLabels(n->child2, out);
      return;
    default:
      return;
  }
}

void CollectLabels(const PathPtr& p, std::set<std::string>* out) {
  switch (p->kind) {
    case PathKind::kSeq:
    case PathKind::kUnion:
      CollectLabels(p->left, out);
      CollectLabels(p->right, out);
      return;
    case PathKind::kFilter:
      CollectLabels(p->left, out);
      CollectLabels(p->filter, out);
      return;
    case PathKind::kStar:
      CollectLabels(p->left, out);
      return;
    default:
      return;
  }
}

// Whether the optimizer sends a query to the engines: only ↓/↓*-only
// queries (no α*) are probed.
bool ProbeFriendly(const PathPtr& p) {
  switch (p->kind) {
    case PathKind::kAxis:
    case PathKind::kAxisStar:
    case PathKind::kSelf:
      return true;
    case PathKind::kSeq:
    case PathKind::kUnion:
      return ProbeFriendly(p->left) && ProbeFriendly(p->right);
    case PathKind::kFilter:
      return ProbeFriendly(p->left);
    default:
      return false;
  }
}

struct ProbeCount {
  int64_t probes = 0;
  int64_t unknown = 0;  ///< Answers that are neither contained nor not.
  int64_t cold = 0;     ///< Re-issued probes the optimizer had not made.
};

// Re-issues the optimizer's semantic-dedupe probes through the deploy's
// Session and counts the answers that are not definite. The optimizer does
// not report its probe answers, so this repeats its probe selection: each
// query that is neither rejected, unsat nor a structural duplicate is
// compared by Session::Equivalent with the earlier active queries that
// mention the same labels, up to the first equivalent one. The optimizer's
// own calls cached these answers; `cold` counts the ones it had not asked.
ProbeCount CountProbes(Deployment* d, const std::vector<PathPtr>& batch) {
  using Disposition = BundleQueryInfo::Disposition;
  struct Rep {
    std::set<std::string> labels;
    PathPtr path;
    bool probe_ok;
  };
  Session& session = *d->session;
  const int max_candidates = BundleOptions().max_candidates;
  const int64_t misses_before = session.stats().containment.misses;
  std::vector<Rep> reps;
  ProbeCount count;
  for (size_t i = 0; i < batch.size(); ++i) {
    const BundleQueryInfo& info = d->optimized.queries[i];
    if (info.disposition == Disposition::kRejected || info.disposition == Disposition::kUnsat) {
      continue;
    }
    const PathPtr canonical = session.Intern(batch[i]);
    if (info.disposition == Disposition::kAliased &&
        canonical == session.Intern(batch[info.target])) {
      continue;
    }
    std::set<std::string> labels;
    CollectLabels(canonical, &labels);
    const bool probe_ok = ProbeFriendly(canonical);
    int candidates = 0;
    for (const Rep& rep : reps) {
      if (!probe_ok) break;
      if (rep.labels != labels) continue;
      if (candidates++ >= max_candidates) break;
      if (!rep.probe_ok) continue;
      const ContainmentResult eq = session.Equivalent(canonical, rep.path);
      ++count.probes;
      count.unknown += eq.verdict == ContainmentVerdict::kUnknown;
      if (eq.verdict == ContainmentVerdict::kContained) break;
    }
    if (info.disposition == Disposition::kActive) {
      reps.push_back({std::move(labels), canonical, probe_ok});
    }
  }
  count.cold = session.stats().containment.misses - misses_before;
  return count;
}

double PruneRatio(const OptimizedBundle& ob) {
  return static_cast<double>(ob.num_aliased + ob.num_subsumed + ob.num_unsat) /
         static_cast<double>(ob.num_queries);
}

void PrintProbes(const ProbeCount& probes) {
  std::printf("optimizer probes re-issued %lld, unknown %lld, not cached %lld\n",
              static_cast<long long>(probes.probes), static_cast<long long>(probes.unknown),
              static_cast<long long>(probes.cold));
}

}  // namespace

void StreamRouteUntraced(const RunConfig& config, Report* report) {
  const int64_t t0 = NowNs();
  World w = SetUp(config.seed, nullptr);
  LoopClock clock(config.seconds, (NowNs() - t0) / 1e9, [&] { SetUp(config.seed, nullptr); });

  Samples latency_us;
  std::vector<double> deploy_s;
  int64_t events = 0, deliveries = 0, match_ns = 0;
  ProbeCount probes;
  Digest digest;
  for (size_t round = 0; round == 0 || clock.Running(NowNs()); ++round) {
    const std::vector<PathPtr>& batch = w.batches[round % kBatches];
    const int64_t d0 = NowNs();
    std::unique_ptr<Deployment> d = Deploy(w.edtd, batch, nullptr);
    deploy_s.push_back((NowNs() - d0) / 1e9);
    for (int k = 0; k < kDocsPerRound; ++k) {
      const std::vector<StreamEvent>& ev = w.RoundDocument(round, k);
      const int64_t t0 = NowNs();
      Route(d->matcher.get(), ev);
      const int64_t dt = NowNs() - t0;
      latency_us.Add(dt / 1e3);
      match_ns += dt;
      events += static_cast<int64_t>(ev.size());
    }
    deliveries += d->deliveries;
    if (round < kDigestRounds) {
      digest.Add(static_cast<uint64_t>(d->deliveries));
      digest.Add(d->checksum);
    }
    // Untimed: the probe answers, and the Evaluator comparison on one
    // small document per round.
    clock.Paused([&] {
      const ProbeCount c = CountProbes(d.get(), batch);
      probes.probes += c.probes;
      probes.unknown += c.unknown;
      probes.cold += c.cold;
      if (!DeliveriesMatchEvaluator(d.get(), batch, w.verify_docs[round % kVerifyDocs])) {
        report->Wrong("stream deliveries differ from the Evaluator in round " +
                      std::to_string(round));
      }
    });
  }
  const double wall_s = clock.Seconds();

  std::printf("rounds %zu, documents %zu, events/s %.4g, deliveries/s %.4g, deploy p50 %.4g s\n",
              deploy_s.size(), static_cast<size_t>(latency_us.count()), events / (match_ns / 1e9),
              deliveries / (match_ns / 1e9), Median(deploy_s));
  std::printf("delivery digest (first %d rounds): %016llx\n", kDigestRounds,
              static_cast<unsigned long long>(digest.h));
  std::vector<size_t> doc_events;
  for (const std::vector<StreamEvent>& doc : w.corpus) doc_events.push_back(doc.size());
  std::printf("corpus: %zu documents, events p50 %.0f, p99 %.0f, max %.0f\n", doc_events.size(),
              Median(doc_events), Quantile(doc_events, 0.99), Quantile(doc_events, 1.0));
  PrintProbes(probes);
  report->attempted = latency_us.count();
  report->failed = probes.unknown;
  SetRequestMetrics(report, latency_us, wall_s);
  report->Set("setup_s", clock.MedianSetupSeconds());
  report->Set("decided_ratio",
              probes.probes == 0 ? 1.0
                                 : 1.0 - static_cast<double>(probes.unknown) / probes.probes);
}

void StreamRouteTraced(const RunConfig& config, Report* report) {
  Tracer tracer;
  World w = SetUp(config.seed, &tracer);

  std::vector<double> deploy_s, prune, subset_states, subset_misses;
  Overhead overhead;
  int64_t events = 0, deliveries = 0, ref_match_ns = 0, traced_match_ns = 0, documents = 0,
          requests = 0;
  ProbeCount probes;
  StatsSnapshot telemetry;  // Engine counters of the traced optimizer's probes.
  const int64_t deadline = NowNs() + static_cast<int64_t>(config.seconds) * 1000000000;
  for (size_t round = 0; NowNs() < deadline; ++round) {
    const std::vector<PathPtr>& batch = w.batches[round % kBatches];
    std::unique_ptr<Deployment> ref, d;
    auto deploy_reference = [&] {
      const int64_t d0 = NowNs();
      ref = Deploy(w.edtd, batch, nullptr);
      const int64_t deploy_ns = NowNs() - d0;
      deploy_s.push_back(deploy_ns / 1e9);
      overhead.untraced_ns[TracedFirst(requests)] += deploy_ns;
    };
    auto deploy_traced = [&] {
      tracer.BeginRequest(requests);
      {
        Tracer::Scope span(&tracer, Layer::kDeploy);
        d = Deploy(w.edtd, batch, &tracer);
      }
      overhead.traced_ns[TracedFirst(requests)] += tracer.EndRequest();
    };
    if (TracedFirst(requests)) {
      deploy_traced();
      deploy_reference();
    } else {
      deploy_reference();
      deploy_traced();
    }
    ++requests;
    telemetry.MergeFrom(d->session->telemetry());
    prune.push_back(PruneRatio(d->optimized));
    for (size_t q = 0; q < batch.size(); ++q) {
      const BundleQueryInfo& a = ref->optimized.queries[q];
      const BundleQueryInfo& b = d->optimized.queries[q];
      if (a.disposition != b.disposition || a.target != b.target) {
        report->Wrong("trace fidelity: deploy dispositions differ in round " +
                      std::to_string(round));
        break;
      }
    }

    Stats matcher_stats;  // Collects the traced matcher's subset-cache misses.
    for (int k = 0; k < kDocsPerRound; ++k) {
      const std::vector<StreamEvent>& ev = w.RoundDocument(round, k);
      auto match_reference = [&] {
        const int64_t t0 = NowNs();
        Route(ref->matcher.get(), ev);
        const int64_t dt = NowNs() - t0;
        overhead.untraced_ns[TracedFirst(requests)] += dt;
        ref_match_ns += dt;
      };
      auto match_traced = [&] {
        tracer.BeginRequest(requests);
        {
          ScopedStatsSink sink(&matcher_stats);
          Tracer::Scope span(&tracer, Layer::kMatch);
          Route(d->matcher.get(), ev);
        }
        const int64_t dt = tracer.EndRequest();
        overhead.traced_ns[TracedFirst(requests)] += dt;
        traced_match_ns += dt;
      };
      if (TracedFirst(requests)) {
        match_traced();
        match_reference();
      } else {
        match_reference();
        match_traced();
      }
      ++requests;
      ++documents;
      events += static_cast<int64_t>(ev.size());
    }
    deliveries += ref->deliveries;
    if (d->deliveries != ref->deliveries || d->checksum != ref->checksum) {
      report->Wrong("trace fidelity: deliveries differ in round " + std::to_string(round));
    }
    subset_states.push_back(d->matcher->dfa_states());
    subset_misses.push_back(
        static_cast<double>(matcher_stats.Snapshot().value(Metric::kStreamDfaMisses)));
    const ProbeCount c = CountProbes(ref.get(), batch);
    probes.probes += c.probes;
    probes.unknown += c.unknown;
    probes.cold += c.cold;
    if (!DeliveriesMatchEvaluator(d.get(), batch, w.verify_docs[round % kVerifyDocs])) {
      report->Wrong("stream deliveries differ from the Evaluator in round " +
                    std::to_string(round));
    }
  }

  PrintProbes(probes);
  report->attempted = documents;
  report->failed = probes.unknown;
  auto ratio = [](int64_t part, int64_t whole) {
    return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
  };
  const int64_t solves = telemetry.value(Metric::kSessionContainmentMisses);
  const double per_solve = solves == 0 ? 0.0 : 1.0 / static_cast<double>(solves);
  report->Set("core.session_hit_ratio",
              ratio(telemetry.value(Metric::kSessionContainmentHits),
                    telemetry.value(Metric::kSessionContainmentHits) + solves));
  report->Set("classify.fastpath_ratio",
              ratio(telemetry.value(Metric::kClassifyFastpathHits),
                    telemetry.value(Metric::kClassifyFastpathHits) +
                        telemetry.value(Metric::kClassifyFastpathFallbacks)));
  report->Set("schemaindex.build_s", tracer.total(Layer::kSchemaIndexBuild).sum() / 1e9);
  report->Set("schemaindex.hit_ratio",
              ratio(telemetry.value(Metric::kSchemaIndexHits),
                    telemetry.value(Metric::kSchemaIndexHits) +
                        telemetry.value(Metric::kSchemaIndexColdMisses)));
  report->Set("sat.downward_summaries",
              telemetry.value(Metric::kSatDownwardSummaries) * per_solve);
  report->Set("sat.loop_items", telemetry.value(Metric::kSatLoopItems) * per_solve);
  report->Set("stream.optimize_s", tracer.total(Layer::kOptimize).Quantile(0.5) / 1e9);
  report->Set("stream.compile_s", tracer.total(Layer::kCompile).Quantile(0.5) / 1e9);
  report->Set("stream.prune_ratio", Mean(prune));
  report->Set("stream.step_ns", static_cast<double>(traced_match_ns) / events);
  report->Set("stream.subset_states", Mean(subset_states));
  report->Set("stream.subset_misses", Mean(subset_misses));
  report->Set("stream.deploy_s", Median(deploy_s));
  report->Set("stream.events_per_s", events / (ref_match_ns / 1e9));
  report->Set("stream.deliveries_per_s", deliveries / (ref_match_ns / 1e9));
  FinishTrace(config, tracer, overhead, requests, report);
}

}  // namespace perfbench
