// Serving-runtime suite: epoch-pinned execution must stay bit-identical to
// an offline engine built over the pinned epoch's exact corpus state while
// ingest and deletes hot-swap epochs under live query load; the epoch
// registry must never destroy a pinned epoch (the retire-order stress is
// the TSan target); admission overload and deadline expiry must surface as
// clean typed statuses, never as partial rankings.
#include "serve/serve_runtime.h"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "benchgen/benchmark_factory.h"
#include "core/search_engine.h"
#include "core/similarity.h"
#include "io/engine_snapshot.h"
#include "serve/bounded_queue.h"
#include "serve/epoch_registry.h"
#include "util/logging.h"
#include "test_temp_dir.h"

namespace thetis {
namespace {

using benchgen::Benchmark;
using benchgen::GeneratedQuery;
using benchgen::MakeBenchmark;
using benchgen::MakeQueries;
using benchgen::PresetKind;

void ExpectSameHits(const std::vector<SearchHit>& expected,
                    const std::vector<SearchHit>& actual,
                    const std::string& label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].table, actual[i].table) << label << " pos " << i;
    EXPECT_EQ(expected[i].score, actual[i].score) << label << " pos " << i;
  }
}

// A benchmark world split into an initial corpus plus ingest batches, so
// the exact corpus content of every serving epoch can be reproduced
// offline: epoch e (of a pure-ingest run) is base + batches[0..e).
struct World {
  Benchmark bench;
  TypeJaccardSimilarity sim;
  Corpus base;
  std::vector<std::vector<Table>> batches;
  std::vector<GeneratedQuery> queries;

  World(double scale, uint64_t seed, size_t num_batches, size_t batch_tables,
        size_t num_queries)
      : bench(MakeBenchmark(PresetKind::kWt2015Like, scale, seed)),
        sim(&bench.kg.kg) {
    const Corpus& full = bench.lake.corpus;
    const size_t reserved = num_batches * batch_tables;
    THETIS_CHECK(full.size() > reserved);
    const size_t base_count = full.size() - reserved;
    for (TableId id = 0; id < base_count; ++id) {
      base.AddTable(full.table(id));
    }
    size_t next = base_count;
    for (size_t b = 0; b < num_batches; ++b) {
      std::vector<Table> batch;
      for (size_t t = 0; t < batch_tables; ++t) {
        batch.push_back(full.table(next++));
      }
      batches.push_back(std::move(batch));
    }
    queries = MakeQueries(bench.kg, num_queries, seed * 7 + 3);
  }

  // The corpus content after `ingests` applied batches.
  Corpus CorpusAt(size_t ingests) const {
    Corpus corpus;
    for (TableId id = 0; id < base.size(); ++id) {
      corpus.AddTable(base.table(id));
    }
    for (size_t b = 0; b < ingests; ++b) {
      for (const Table& table : batches[b]) corpus.AddTable(table);
    }
    return corpus;
  }

  // Offline reference: every query's hits against a fresh engine over
  // `corpus` — the ground truth a serving epoch of that content must match
  // bit-for-bit.
  std::vector<std::vector<SearchHit>> Reference(
      const Corpus& corpus, const SearchOptions& options) const {
    SemanticDataLake lake(&corpus, &bench.kg.kg);
    SearchEngine engine(&lake, &sim, options);
    std::vector<std::vector<SearchHit>> hits;
    hits.reserve(queries.size());
    for (const GeneratedQuery& gq : queries) {
      hits.push_back(engine.Search(gq.query));
    }
    return hits;
  }
};

// --- Bounded queue -----------------------------------------------------------------

TEST(BoundedQueueTest, FifoFullAndEmptyWithMoveOnlyItems) {
  BoundedQueue<std::unique_ptr<int>> queue(3);  // rounds up to 4
  EXPECT_EQ(queue.capacity(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(queue.TryPush(std::make_unique<int>(i)));
  }
  auto extra = std::make_unique<int>(99);
  EXPECT_FALSE(queue.TryPush(std::move(extra)));
  ASSERT_NE(extra, nullptr);  // a failed push leaves the item intact
  EXPECT_EQ(*extra, 99);
  std::unique_ptr<int> out;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(queue.TryPop(&out));
    EXPECT_EQ(*out, i);
  }
  EXPECT_FALSE(queue.TryPop(&out));
  // Wraps: usable again after a full drain.
  EXPECT_TRUE(queue.TryPush(std::make_unique<int>(7)));
  ASSERT_TRUE(queue.TryPop(&out));
  EXPECT_EQ(*out, 7);
}

// --- Epoch registry ----------------------------------------------------------------

std::shared_ptr<EngineEpoch> LightEpoch(uint64_t id,
                                        std::atomic<uint64_t>* destroyed) {
  auto epoch = std::make_shared<EngineEpoch>();
  epoch->id = id;
  epoch->on_destroy = [destroyed] {
    destroyed->fetch_add(1, std::memory_order_relaxed);
  };
  return epoch;
}

TEST(EpochRegistryTest, PinBlocksRetireUntilReleased) {
  std::atomic<uint64_t> destroyed{0};
  {
    EpochRegistry registry;
    EXPECT_FALSE(registry.PinCurrent());  // nothing published yet
    registry.Publish(LightEpoch(0, &destroyed));
    EpochRegistry::Pin pin = registry.PinCurrent();
    ASSERT_TRUE(pin);
    EXPECT_EQ(pin->id, 0u);
    registry.Publish(LightEpoch(1, &destroyed));
    // The old epoch is pinned: publish + explicit sweeps must not touch it.
    registry.TryRetire();
    EXPECT_EQ(destroyed.load(), 0u);
    EXPECT_EQ(pin->id, 0u);  // still dereferenceable
    EXPECT_EQ(registry.live_epochs(), 2u);
    EpochRegistry::Pin pin_new = registry.PinCurrent();
    ASSERT_TRUE(pin_new);
    EXPECT_EQ(pin_new->id, 1u);
    pin.Release();
    EXPECT_FALSE(pin);
    EXPECT_EQ(registry.TryRetire(), 1u);
    EXPECT_EQ(destroyed.load(), 1u);
    EXPECT_EQ(registry.live_epochs(), 1u);
  }
  EXPECT_EQ(destroyed.load(), 2u);  // registry teardown frees the survivor
}

// The TSan target: readers pin/dereference/release at full speed while the
// writer publishes a stream of epochs. Any destroy racing a pinned reader
// is a use-after-free TSan reports; the counters additionally prove every
// retired epoch really drained.
TEST(EpochRegistryTest, RetireOrderStressUnderConcurrentPublish) {
  constexpr uint64_t kEpochs = 200;
  constexpr size_t kReaders = 4;
  std::atomic<uint64_t> destroyed{0};
  std::atomic<uint64_t> pins_taken{0};
  std::atomic<uint64_t> id_mismatches{0};
  {
    EpochRegistry registry;
    registry.Publish(LightEpoch(0, &destroyed));
    std::atomic<bool> stop{false};
    std::vector<std::thread> readers;
    for (size_t r = 0; r < kReaders; ++r) {
      readers.emplace_back([&] {
        uint64_t last_seen = 0;
        while (!stop.load(std::memory_order_acquire)) {
          EpochRegistry::Pin pin = registry.PinCurrent();
          if (!pin) continue;
          // Epoch ids are published in order; a pinned id may lag the
          // writer but can never go backwards for one reader.
          if (pin->id < last_seen) {
            id_mismatches.fetch_add(1, std::memory_order_relaxed);
          }
          last_seen = pin->id;
          pins_taken.fetch_add(1, std::memory_order_relaxed);
          if ((last_seen & 7) == 0) std::this_thread::yield();
        }
      });
    }
    for (uint64_t id = 1; id <= kEpochs; ++id) {
      registry.Publish(LightEpoch(id, &destroyed));
      if ((id & 15) == 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    stop.store(true, std::memory_order_release);
    for (std::thread& reader : readers) reader.join();
    // All pins drained: everything but the current epoch must retire.
    while (registry.live_epochs() > 1) registry.TryRetire();
    EXPECT_EQ(destroyed.load(), kEpochs);  // kEpochs + 1 published, 1 live
    EXPECT_EQ(id_mismatches.load(), 0u);
    EXPECT_GT(pins_taken.load(), 0u);
  }
  EXPECT_EQ(destroyed.load(), kEpochs + 1);
}

// --- Serving parity ----------------------------------------------------------------

ServeOptions SmallServeOptions() {
  ServeOptions options;
  options.num_workers = 2;
  options.queue_capacity = 64;
  options.batch_size = 3;
  options.linger_micros = 50;
  options.search.top_k = 10;
  return options;
}

TEST(ServeRuntimeTest, MatchesOfflineEngine) {
  World world(0.04, 11, 1, 4, 6);
  ServeOptions options = SmallServeOptions();
  auto reference = world.Reference(world.CorpusAt(0), options.search);
  ServeRuntime runtime(world.CorpusAt(0), &world.bench.kg.kg, &world.sim,
                       options);
  for (size_t q = 0; q < world.queries.size(); ++q) {
    ServeResponse response = runtime.Submit(world.queries[q].query).get();
    ASSERT_TRUE(response.status.ok()) << response.status.message();
    EXPECT_EQ(response.epoch_id, 0u);
    ExpectSameHits(reference[q], response.hits,
                   "query " + std::to_string(q));
    EXPECT_GT(response.latency_seconds, 0.0);
  }
  EXPECT_EQ(runtime.hot_swaps(), 0u);
}

// The tentpole's acceptance check: live ingest hot-swaps epochs under
// concurrent query load, and every response is bit-identical to an offline
// engine built over ITS epoch's exact corpus state — queries never observe
// a half-ingested world, and no response is ever lost or blocked.
TEST(ServeRuntimeTest, IngestWhileQueryingStaysEpochExact) {
  constexpr size_t kBatches = 2;
  World world(0.04, 23, kBatches, 4, 6);
  ServeOptions options = SmallServeOptions();

  std::vector<std::vector<std::vector<SearchHit>>> reference;
  for (size_t e = 0; e <= kBatches; ++e) {
    reference.push_back(world.Reference(world.CorpusAt(e), options.search));
  }

  ServeRuntime runtime(world.CorpusAt(0), &world.bench.kg.kg, &world.sim,
                       options);
  struct Tagged {
    size_t query;
    ServeResponse response;
  };
  std::vector<Tagged> collected;
  std::mutex collected_mutex;
  std::atomic<bool> stop{false};
  std::atomic<size_t> round_robin{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < 2; ++c) {
    clients.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        const size_t q = round_robin.fetch_add(1, std::memory_order_relaxed) %
                         world.queries.size();
        ServeResponse response =
            runtime.Submit(world.queries[q].query).get();
        std::lock_guard<std::mutex> lock(collected_mutex);
        collected.push_back({q, std::move(response)});
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  for (size_t b = 0; b < kBatches; ++b) {
    std::vector<Table> batch = world.batches[b];  // runtime consumes a copy
    Result<uint64_t> epoch = runtime.IngestTables(std::move(batch));
    ASSERT_TRUE(epoch.ok()) << epoch.status().message();
    EXPECT_EQ(epoch.value(), b + 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& client : clients) client.join();
  runtime.Stop();

  EXPECT_EQ(runtime.hot_swaps(), kBatches);
  EXPECT_EQ(runtime.current_epoch_id(), kBatches);
  ASSERT_FALSE(collected.empty());
  size_t distinct_epochs = 0;
  std::vector<bool> seen(kBatches + 1, false);
  for (const Tagged& tagged : collected) {
    ASSERT_TRUE(tagged.response.status.ok())
        << tagged.response.status.message();
    ASSERT_LE(tagged.response.epoch_id, kBatches);
    if (!seen[tagged.response.epoch_id]) {
      seen[tagged.response.epoch_id] = true;
      ++distinct_epochs;
    }
    ExpectSameHits(reference[tagged.response.epoch_id][tagged.query],
                   tagged.response.hits,
                   "epoch " + std::to_string(tagged.response.epoch_id) +
                       " query " + std::to_string(tagged.query));
  }
  // With 50ms of pure-query time around each swap, several epochs must
  // actually have served traffic (the swap really happened under load).
  EXPECT_GE(distinct_epochs, 2u);
}

TEST(ServeRuntimeTest, DeleteTombstonesImmediatelyAndCompactionFolds) {
  World world(0.04, 31, 1, 4, 6);
  ServeOptions options = SmallServeOptions();
  auto ref_initial = world.Reference(world.CorpusAt(0), options.search);

  // Victim: the top hit of the first query with results.
  size_t probe = 0;
  while (probe < ref_initial.size() && ref_initial[probe].empty()) ++probe;
  ASSERT_LT(probe, ref_initial.size());
  const TableId victim = ref_initial[probe][0].table;
  const std::string victim_name = world.base.table(victim).name();

  ServeRuntime runtime(world.CorpusAt(0), &world.bench.kg.kg, &world.sim,
                       options);
  Result<uint64_t> deleted = runtime.DeleteTable(victim_name);
  ASSERT_TRUE(deleted.ok()) << deleted.status().message();
  EXPECT_EQ(deleted.value(), 1u);
  EXPECT_FALSE(runtime.DeleteTable("no such table").ok());

  // Reference for the delete epoch: same corpus, tombstone supplied via
  // SearchOptions — the engine-level contract the re-skin relies on.
  SearchOptions tomb_options = options.search;
  auto tombstones = std::make_shared<TableTombstones>();
  tombstones->Add(victim);
  tomb_options.tombstones = tombstones;
  Corpus delete_corpus = world.CorpusAt(0);
  auto ref_deleted = world.Reference(delete_corpus, tomb_options);

  {
    EpochRegistry::Pin pin = runtime.PinCurrent();
    ASSERT_TRUE(pin);
    EXPECT_EQ(pin->id, 1u);
    ASSERT_NE(pin->tombstones, nullptr);
    EXPECT_TRUE(pin->tombstones->Contains(victim));
    EXPECT_NE(pin->base, nullptr);  // a re-skin, not a rebuild
  }
  for (size_t q = 0; q < world.queries.size(); ++q) {
    ServeResponse response = runtime.Submit(world.queries[q].query).get();
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(response.epoch_id, 1u);
    for (const SearchHit& hit : response.hits) {
      EXPECT_NE(hit.table, victim) << "deleted table served";
    }
    ExpectSameHits(ref_deleted[q], response.hits,
                   "post-delete query " + std::to_string(q));
    EXPECT_GT(response.stats.tables_tombstoned, 0u);
  }

  // Ingest triggers compaction: the tombstone folds into the new epoch's
  // corpus (the victim is blanked) and the tombstone set resets.
  Result<uint64_t> ingested =
      runtime.IngestTables(std::vector<Table>(world.batches[0]));
  ASSERT_TRUE(ingested.ok()) << ingested.status().message();
  EXPECT_EQ(ingested.value(), 2u);
  {
    EpochRegistry::Pin pin = runtime.PinCurrent();
    ASSERT_TRUE(pin);
    EXPECT_EQ(pin->id, 2u);
    EXPECT_EQ(pin->tombstones, nullptr);
    ASSERT_NE(pin->corpus, nullptr);
    EXPECT_EQ(pin->corpus->table(victim).num_rows(), 0u);
    EXPECT_EQ(pin->corpus->table(victim).name(), victim_name);  // reserved
  }
  // Offline replica of the compacted world: blank the victim, then append
  // the batch — must match the serving epoch bit-for-bit.
  Corpus compacted = world.CorpusAt(0);
  *compacted.mutable_table(victim) = Table(victim_name, {});
  for (const Table& table : world.batches[0]) compacted.AddTable(table);
  auto ref_compacted = world.Reference(compacted, options.search);
  for (size_t q = 0; q < world.queries.size(); ++q) {
    ServeResponse response = runtime.Submit(world.queries[q].query).get();
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(response.epoch_id, 2u);
    for (const SearchHit& hit : response.hits) {
      EXPECT_NE(hit.table, victim);
    }
    ExpectSameHits(ref_compacted[q], response.hits,
                   "post-compaction query " + std::to_string(q));
  }
}

TEST(ServeRuntimeTest, SnapshotColdStartServesDeletesAndIngests) {
  World world(0.03, 47, 1, 3, 5);
  ServeOptions options = SmallServeOptions();
  const std::string path = TestTempDir() + "/serve_cold_start.snap";
  {
    Corpus corpus = world.CorpusAt(0);
    SemanticDataLake lake(&corpus, &world.bench.kg.kg);
    SearchEngine engine(&lake, &world.sim, options.search);
    EngineSnapshotParts parts;
    parts.lake = &lake;
    parts.engine = &engine;
    ASSERT_TRUE(SaveEngineSnapshot(path, parts).ok());
  }
  auto ref_initial = world.Reference(world.CorpusAt(0), options.search);

  Result<std::unique_ptr<ServeRuntime>> loaded = ServeRuntime::FromSnapshot(
      path, world.CorpusAt(0), &world.bench.kg.kg, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ServeRuntime& runtime = *loaded.value();
  for (size_t q = 0; q < world.queries.size(); ++q) {
    ServeResponse response = runtime.Submit(world.queries[q].query).get();
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(response.epoch_id, 0u);
    ExpectSameHits(ref_initial[q], response.hits,
                   "cold-start query " + std::to_string(q));
  }

  // Delete directly on the snapshot epoch: the re-skin views the MMAP'D
  // arenas (the strongest lifetime case — base epoch borrows from the
  // LoadedEngine, the re-skin borrows from the base).
  size_t probe = 0;
  while (probe < ref_initial.size() && ref_initial[probe].empty()) ++probe;
  ASSERT_LT(probe, ref_initial.size());
  const TableId victim = ref_initial[probe][0].table;
  Result<uint64_t> deleted =
      runtime.DeleteTable(world.base.table(victim).name());
  ASSERT_TRUE(deleted.ok()) << deleted.status().message();
  SearchOptions tomb_options = options.search;
  auto tombstones = std::make_shared<TableTombstones>();
  tombstones->Add(victim);
  tomb_options.tombstones = tombstones;
  Corpus delete_corpus = world.CorpusAt(0);
  auto ref_deleted = world.Reference(delete_corpus, tomb_options);
  for (size_t q = 0; q < world.queries.size(); ++q) {
    ServeResponse response = runtime.Submit(world.queries[q].query).get();
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(response.epoch_id, 1u);
    ExpectSameHits(ref_deleted[q], response.hits,
                   "snapshot-delete query " + std::to_string(q));
  }

  // Ingest on top: full rebuild epoch with the tombstone compacted away.
  Result<uint64_t> ingested =
      runtime.IngestTables(std::vector<Table>(world.batches[0]));
  ASSERT_TRUE(ingested.ok()) << ingested.status().message();
  Corpus compacted = world.CorpusAt(0);
  const std::string victim_name = world.base.table(victim).name();
  *compacted.mutable_table(victim) = Table(victim_name, {});
  for (const Table& table : world.batches[0]) compacted.AddTable(table);
  auto ref_compacted = world.Reference(compacted, options.search);
  for (size_t q = 0; q < world.queries.size(); ++q) {
    ServeResponse response = runtime.Submit(world.queries[q].query).get();
    ASSERT_TRUE(response.status.ok());
    EXPECT_EQ(response.epoch_id, 2u);
    ExpectSameHits(ref_compacted[q], response.hits,
                   "snapshot-ingest query " + std::to_string(q));
  }
  EXPECT_EQ(runtime.hot_swaps(), 2u);
}

// Re-saving the snapshot a runtime is serving from, while queries run:
// saves are write-to-temporary + rename, so the served mapping keeps its
// inode and every response stays bit-identical. (A writer that truncated
// the file in place killed the server with SIGBUS here.)
TEST(ServeRuntimeTest, ResavingServedSnapshotKeepsServing) {
  World world(0.03, 53, 1, 1, 5);
  ServeOptions options = SmallServeOptions();
  const std::string path = TestTempDir() + "/serve_resave.snap";
  Corpus corpus = world.CorpusAt(0);
  SemanticDataLake lake(&corpus, &world.bench.kg.kg);
  SearchEngine engine(&lake, &world.sim, options.search);
  EngineSnapshotParts parts;
  parts.lake = &lake;
  parts.engine = &engine;
  ASSERT_TRUE(SaveEngineSnapshot(path, parts).ok());
  auto reference = world.Reference(world.CorpusAt(0), options.search);

  Result<std::unique_ptr<ServeRuntime>> loaded = ServeRuntime::FromSnapshot(
      path, world.CorpusAt(0), &world.bench.kg.kg, options);
  ASSERT_TRUE(loaded.ok()) << loaded.status().message();
  ServeRuntime& runtime = *loaded.value();

  std::atomic<bool> stop{false};
  std::atomic<bool> client_done{false};
  std::atomic<size_t> served{0};
  std::thread client([&] {
    for (size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
      const size_t q = i % world.queries.size();
      ServeResponse response = runtime.Submit(world.queries[q].query).get();
      EXPECT_TRUE(response.status.ok()) << response.status.message();
      if (!response.status.ok()) break;
      ExpectSameHits(reference[q], response.hits,
                     "query " + std::to_string(q) + " during re-save");
      served.fetch_add(1, std::memory_order_relaxed);
    }
    client_done.store(true, std::memory_order_relaxed);
  });
  // Keep saving until the client has overlapped the saves with real work
  // (bounded, in case the client stopped early on a failure).
  for (int save = 0; save < 2000; ++save) {
    EXPECT_TRUE(SaveEngineSnapshot(path, parts).ok()) << "save " << save;
    if (save >= 20 && (client_done.load(std::memory_order_relaxed) ||
                       served.load(std::memory_order_relaxed) >=
                           2 * world.queries.size())) {
      break;
    }
  }
  stop.store(true, std::memory_order_relaxed);
  client.join();
  EXPECT_GE(served.load(), 2 * world.queries.size());

  // Only the snapshot itself is left: no temporary file survives a save.
  size_t files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(TestTempDir())) {
    if (entry.path().filename().string().rfind("serve_resave.snap", 0) == 0) {
      ++files;
      EXPECT_EQ(entry.path().string(), path);
    }
  }
  EXPECT_EQ(files, 1u);
}

// --- Admission control and deadlines ----------------------------------------------

TEST(ServeRuntimeTest, AdmissionSaturationShedsWithResourceExhausted) {
  World world(0.04, 59, 1, 4, 4);
  ServeOptions options = SmallServeOptions();
  options.num_workers = 1;
  options.queue_capacity = 2;
  options.batch_size = 1;
  options.linger_micros = 0;
  auto reference = world.Reference(world.CorpusAt(0), options.search);
  ServeRuntime runtime(world.CorpusAt(0), &world.bench.kg.kg, &world.sim,
                       options);
  constexpr size_t kFlood = 64;
  std::vector<std::pair<size_t, std::future<ServeResponse>>> inflight;
  inflight.reserve(kFlood);
  for (size_t i = 0; i < kFlood; ++i) {
    const size_t q = i % world.queries.size();
    inflight.emplace_back(q, runtime.Submit(world.queries[q].query));
  }
  size_t ok = 0, shed = 0;
  for (auto& [q, future] : inflight) {
    ServeResponse response = future.get();  // every future must resolve
    if (response.status.ok()) {
      ++ok;
      ExpectSameHits(reference[q], response.hits, "admitted query");
    } else {
      ASSERT_EQ(response.status.code(), StatusCode::kResourceExhausted)
          << response.status.message();
      EXPECT_TRUE(response.hits.empty());
      EXPECT_EQ(response.stats.shed, 1u);
      ++shed;
    }
  }
  EXPECT_EQ(ok + shed, kFlood);
  EXPECT_GT(ok, 0u);    // the admitted prefix completed
  EXPECT_GT(shed, 0u);  // a 2-deep queue cannot absorb a 64-burst
}

TEST(ServeRuntimeTest, DeadlineIsAllOrNothing) {
  World world(0.04, 67, 1, 4, 4);
  // Engine-level determinism first: an un-hittable budget is bit-identical
  // to no budget; an already-expired budget yields empty hits + the flag,
  // never a partial ranking.
  {
    Corpus corpus = world.CorpusAt(0);
    SemanticDataLake lake(&corpus, &world.bench.kg.kg);
    SearchOptions no_deadline;
    SearchOptions generous = no_deadline;
    generous.deadline_seconds = 1e9;
    SearchOptions instant = no_deadline;
    instant.deadline_seconds = 1e-12;
    SearchEngine baseline(&lake, &world.sim, no_deadline);
    SearchEngine with_budget(&lake, &world.sim, generous);
    SearchEngine expired(&lake, &world.sim, instant);
    for (const GeneratedQuery& gq : world.queries) {
      SearchStats stats;
      ExpectSameHits(baseline.Search(gq.query),
                     with_budget.Search(gq.query), "generous budget");
      auto hits = expired.Search(gq.query, &stats);
      EXPECT_TRUE(hits.empty());
      EXPECT_EQ(stats.deadline_exceeded, 1u);
    }
  }
  // Serve-level: a microscopic budget means every response is a clean
  // typed error with no hits — shed at dequeue (queue wait alone exceeds
  // it) or aborted by the engine, depending on timing.
  ServeOptions options = SmallServeOptions();
  options.deadline_seconds = 1e-7;
  ServeRuntime runtime(world.CorpusAt(0), &world.bench.kg.kg, &world.sim,
                       options);
  for (const GeneratedQuery& gq : world.queries) {
    ServeResponse response = runtime.Submit(gq.query).get();
    EXPECT_FALSE(response.status.ok());
    EXPECT_TRUE(response.hits.empty());
    EXPECT_TRUE(response.status.code() == StatusCode::kResourceExhausted ||
                response.status.code() == StatusCode::kDeadlineExceeded)
        << StatusCodeName(response.status.code());
  }
  // And a generous budget serves normally end to end.
  ServeOptions relaxed = SmallServeOptions();
  relaxed.deadline_seconds = 300.0;
  auto reference = world.Reference(world.CorpusAt(0), relaxed.search);
  ServeRuntime unhurried(world.CorpusAt(0), &world.bench.kg.kg, &world.sim,
                         relaxed);
  for (size_t q = 0; q < world.queries.size(); ++q) {
    ServeResponse response = unhurried.Submit(world.queries[q].query).get();
    ASSERT_TRUE(response.status.ok());
    ExpectSameHits(reference[q], response.hits, "relaxed deadline");
  }
}

}  // namespace
}  // namespace thetis
