#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <set>
#include <string>
#include <unordered_set>

#include "data/batch.h"
#include "data/concept_graph.h"
#include "data/dataset.h"
#include "data/sampler.h"
#include "data/split.h"
#include "data/stream.h"
#include "data/synthetic.h"
#include "gtest/gtest.h"
#include "utils/status.h"

namespace isrec::data {

// Prints a preset by name; gtest's default byte dump holds heap
// addresses, which would put a per-build value into the ctest name.
// Lives outside the unnamed namespace so argument-dependent lookup
// from gtest finds it.
static void PrintTo(const SyntheticConfig& config, std::ostream* os) {
  *os << config.name;
}

namespace {

TEST(ConceptGraphTest, EdgesAreDeduplicatedAndUndirected) {
  ConceptGraph g(4, {{0, 1}, {1, 0}, {2, 3}, {2, 2}});
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.HasEdge(3, 2));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_FALSE(g.HasEdge(2, 2));  // Self loop dropped.
}

TEST(ConceptGraphTest, DefaultNamesAreGenerated) {
  ConceptGraph g(3, {{0, 1}});
  EXPECT_EQ(g.name(0), "concept_0");
  EXPECT_EQ(g.name(2), "concept_2");
}

TEST(ConceptGraphTest, SmallWorldHasExpectedDegree) {
  Rng rng(1);
  ConceptGraph g = ConceptGraph::GenerateSmallWorld(50, 6, 0.1, rng);
  EXPECT_EQ(g.num_concepts(), 50);
  // Ring lattice with k/2 = 3 per node: ~150 edges (minus rewire dupes).
  EXPECT_GE(g.num_edges(), 120);
  EXPECT_LE(g.num_edges(), 150);
  double avg_degree = 0;
  for (const auto& n : g.neighbors()) avg_degree += n.size();
  avg_degree /= g.num_concepts();
  EXPECT_NEAR(avg_degree, 6.0, 1.5);
}

TEST(ConceptGraphTest, SmallWorldRewiringCreatesShortcuts) {
  Rng rng(2);
  ConceptGraph lattice = ConceptGraph::GenerateSmallWorld(40, 4, 0.0, rng);
  // Pure lattice: all edges within ring distance 2.
  for (auto [a, b] : lattice.edges()) {
    const Index dist = std::min((a - b + 40) % 40, (b - a + 40) % 40);
    EXPECT_LE(dist, 2);
  }
  ConceptGraph rewired = ConceptGraph::GenerateSmallWorld(40, 4, 0.5, rng);
  int shortcuts = 0;
  for (auto [a, b] : rewired.edges()) {
    const Index dist = std::min((a - b + 40) % 40, (b - a + 40) % 40);
    if (dist > 2) ++shortcuts;
  }
  EXPECT_GT(shortcuts, 5);
}

TEST(ConceptGraphTest, NormalizedAdjacencyShape) {
  ConceptGraph g(5, {{0, 1}, {1, 2}});
  SparseMatrix adj = g.NormalizedAdjacency();
  EXPECT_EQ(adj.num_rows(), 5);
  EXPECT_EQ(adj.num_cols(), 5);
  // 5 self-loops + 2 undirected edges * 2 = 9 entries.
  EXPECT_EQ(adj.nnz(), 9);
}

TEST(DatasetTest, StatisticsMatchHandComputation) {
  Dataset d;
  d.name = "tiny";
  d.num_users = 2;
  d.num_items = 4;
  d.sequences = {{0, 1, 2}, {3}};
  d.item_concepts = {{0}, {0, 1}, {}, {1}};
  d.concepts = ConceptGraph(2, {{0, 1}});
  EXPECT_EQ(d.NumInteractions(), 4);
  EXPECT_DOUBLE_EQ(d.AverageSequenceLength(), 2.0);
  EXPECT_DOUBLE_EQ(d.Density(), 4.0 / 8.0);
  EXPECT_DOUBLE_EQ(d.AverageConceptsPerItem(), 1.0);
  d.Validate();
}

TEST(DatasetTest, FilterRemovesRareUsersAndItems) {
  Dataset d;
  d.num_users = 3;
  d.num_items = 3;
  // Item 2 appears once; user 2 interacts twice but only with item 2.
  d.sequences = {{0, 1, 0, 1}, {1, 0, 1, 0}, {2, 2}};
  d.item_concepts = {{0}, {1}, {0, 1}};
  d.concepts = ConceptGraph(2, {{0, 1}});
  d.FilterRareUsersAndItems(3);
  EXPECT_EQ(d.num_users, 2);
  EXPECT_EQ(d.num_items, 2);
  for (const auto& seq : d.sequences) {
    EXPECT_GE(seq.size(), 3u);
    for (Index item : seq) EXPECT_LT(item, d.num_items);
  }
  d.Validate(3);
}

TEST(SyntheticTest, GeneratedDatasetIsValid) {
  SyntheticConfig config;
  config.num_users = 100;
  config.num_items = 80;
  config.num_concepts = 24;
  Dataset d = GenerateSyntheticDataset(config);
  EXPECT_EQ(d.num_users, 100);
  EXPECT_EQ(d.num_items, 80);
  d.Validate(config.min_sequence_length);
  for (const auto& seq : d.sequences) {
    EXPECT_GE(static_cast<Index>(seq.size()), config.min_sequence_length);
    EXPECT_LE(static_cast<Index>(seq.size()), config.max_sequence_length);
  }
  for (const auto& tags : d.item_concepts) {
    EXPECT_GE(static_cast<Index>(tags.size()), config.min_concepts_per_item);
    EXPECT_LE(static_cast<Index>(tags.size()), config.max_concepts_per_item);
  }
}

TEST(SyntheticTest, GenerationIsDeterministic) {
  SyntheticConfig config;
  config.num_users = 30;
  config.num_items = 40;
  Dataset a = GenerateSyntheticDataset(config);
  Dataset b = GenerateSyntheticDataset(config);
  EXPECT_EQ(a.sequences, b.sequences);
  EXPECT_EQ(a.item_concepts, b.item_concepts);
}

TEST(SyntheticTest, DifferentSeedsProduceDifferentData) {
  SyntheticConfig config;
  config.num_users = 30;
  config.num_items = 40;
  Dataset a = GenerateSyntheticDataset(config);
  config.seed = 999;
  Dataset b = GenerateSyntheticDataset(config);
  EXPECT_NE(a.sequences, b.sequences);
}

TEST(SyntheticTest, SequencesAreConceptCoherent) {
  // Consecutive intent-driven picks should share concepts far more often
  // than random item pairs would.
  SyntheticConfig config;
  config.num_users = 200;
  config.num_items = 150;
  config.noise_prob = 0.0;
  Dataset d = GenerateSyntheticDataset(config);

  auto share_concept = [&](Index a, Index b) {
    for (Index c1 : d.item_concepts[a]) {
      for (Index c2 : d.item_concepts[b]) {
        if (c1 == c2) return true;
      }
    }
    return false;
  };

  int consecutive_share = 0, consecutive_total = 0;
  for (const auto& seq : d.sequences) {
    for (size_t t = 0; t + 1 < seq.size(); ++t) {
      consecutive_share += share_concept(seq[t], seq[t + 1]);
      ++consecutive_total;
    }
  }
  Rng rng(5);
  int random_share = 0;
  const int random_total = 2000;
  for (int i = 0; i < random_total; ++i) {
    random_share += share_concept(rng.NextInt(d.num_items),
                                  rng.NextInt(d.num_items));
  }
  const double consecutive_rate =
      static_cast<double>(consecutive_share) / consecutive_total;
  const double random_rate = static_cast<double>(random_share) / random_total;
  EXPECT_GT(consecutive_rate, random_rate + 0.1)
      << "consecutive=" << consecutive_rate << " random=" << random_rate;
}

class PresetTest : public ::testing::TestWithParam<SyntheticConfig> {};

TEST_P(PresetTest, PresetGeneratesValidDataset) {
  const SyntheticConfig& config = GetParam();
  Dataset d = GenerateSyntheticDataset(config);
  d.Validate(config.min_sequence_length);
  EXPECT_EQ(d.name, config.name);
  EXPECT_GT(d.NumInteractions(), 0);
  EXPECT_GT(d.concepts.num_edges(), 0);
}

INSTANTIATE_TEST_SUITE_P(AllPresets, PresetTest,
                         ::testing::ValuesIn(AllPresets()),
                         [](const auto& info) { return info.param.name; });

TEST(PresetTest, SparsityOrderingMatchesPaper) {
  // Paper Table 3: MovieLens presets are denser and longer than the
  // review datasets; Epinions has the shortest sequences.
  Dataset beauty = GenerateSyntheticDataset(BeautySimConfig());
  Dataset epinions = GenerateSyntheticDataset(EpinionsSimConfig());
  Dataset ml1m = GenerateSyntheticDataset(Ml1mSimConfig());
  EXPECT_LT(epinions.AverageSequenceLength(), beauty.AverageSequenceLength());
  EXPECT_LT(beauty.AverageSequenceLength(), ml1m.AverageSequenceLength());
  EXPECT_LT(beauty.Density(), ml1m.Density());
  EXPECT_LT(epinions.Density(), ml1m.Density());
}

TEST(SplitTest, LeaveOneOutHoldsOutLastTwo) {
  Dataset d;
  d.num_users = 2;
  d.num_items = 10;
  d.sequences = {{0, 1, 2, 3, 4}, {5, 6}};
  d.item_concepts.assign(10, {});
  d.concepts = ConceptGraph(2, {{0, 1}});
  LeaveOneOutSplit split(d);

  ASSERT_TRUE(split.IsEvaluable(0));
  EXPECT_EQ(split.TrainSequence(0), (std::vector<Index>{0, 1, 2}));
  EXPECT_EQ(split.ValidTarget(0), 3);
  EXPECT_EQ(split.TestTarget(0), 4);
  EXPECT_EQ(split.ValidHistory(0), (std::vector<Index>{0, 1, 2}));
  EXPECT_EQ(split.TestHistory(0), (std::vector<Index>{0, 1, 2, 3}));

  // Short user: trains on everything, not evaluable.
  EXPECT_FALSE(split.IsEvaluable(1));
  EXPECT_EQ(split.TrainSequence(1), (std::vector<Index>{5, 6}));
  EXPECT_EQ(split.evaluable_users(), (std::vector<Index>{0}));
}

TEST(SamplerTest, NegativesAreUnseenAndDistinct) {
  Dataset d;
  d.num_users = 1;
  d.num_items = 50;
  d.sequences = {{1, 2, 3, 4, 5}};
  d.item_concepts.assign(50, {});
  d.concepts = ConceptGraph(2, {{0, 1}});
  NegativeSampler sampler(d);
  Rng rng(3);
  const auto negatives = sampler.Sample(0, 40, rng);
  EXPECT_EQ(negatives.size(), 40u);
  std::set<Index> unique(negatives.begin(), negatives.end());
  EXPECT_EQ(unique.size(), 40u);
  for (Index item : negatives) {
    EXPECT_FALSE(sampler.Interacted(0, item));
  }
}

TEST(SamplerTest, SampleOneAvoidsHistory) {
  Dataset d;
  d.num_users = 1;
  d.num_items = 6;
  d.sequences = {{0, 1, 2, 3, 4}};
  d.item_concepts.assign(6, {});
  d.concepts = ConceptGraph(2, {{0, 1}});
  NegativeSampler sampler(d);
  Rng rng(4);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(sampler.SampleOne(0, rng), 5);
}

TEST(BatcherTest, LeftPaddingAndTargets) {
  Dataset d;
  d.num_users = 1;
  d.num_items = 10;
  d.sequences = {{7, 8, 9, 1, 2}};  // Train prefix: {7, 8, 9}.
  d.item_concepts.assign(10, {});
  d.concepts = ConceptGraph(2, {{0, 1}});
  LeaveOneOutSplit split(d);
  SequenceBatcher batcher(split, 4, 5);
  ASSERT_EQ(batcher.NumBatches(), 1);
  SequenceBatch batch = batcher.GetBatch(0);
  EXPECT_EQ(batch.batch_size, 1);
  // Inputs: {7, 8} predicting {8, 9}, left-padded into length 5.
  EXPECT_EQ(batch.items, (std::vector<Index>{-1, -1, -1, 7, 8}));
  EXPECT_EQ(batch.targets, (std::vector<Index>{-1, -1, -1, 8, 9}));
  EXPECT_EQ(batch.valid,
            (std::vector<bool>{false, false, false, true, true}));
}

TEST(BatcherTest, TruncatesLongSequencesKeepingRecent) {
  Dataset d;
  d.num_users = 1;
  d.num_items = 20;
  d.sequences = {{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}};  // Train: 0..7.
  d.item_concepts.assign(20, {});
  d.concepts = ConceptGraph(2, {{0, 1}});
  LeaveOneOutSplit split(d);
  SequenceBatcher batcher(split, 4, 3);
  SequenceBatch batch = batcher.GetBatch(0);
  // Last 3 (input, target) pairs: inputs {4, 5, 6} -> targets {5, 6, 7}.
  EXPECT_EQ(batch.items, (std::vector<Index>{4, 5, 6}));
  EXPECT_EQ(batch.targets, (std::vector<Index>{5, 6, 7}));
}

TEST(BatcherTest, CoversAllTrainableUsersOncePerEpoch) {
  SyntheticConfig config;
  config.num_users = 57;
  config.num_items = 60;
  Dataset d = GenerateSyntheticDataset(config);
  LeaveOneOutSplit split(d);
  SequenceBatcher batcher(split, 10, 8);
  std::multiset<Index> seen;
  for (Index i = 0; i < batcher.NumBatches(); ++i) {
    SequenceBatch batch = batcher.GetBatch(i);
    for (Index u : batch.users) seen.insert(u);
  }
  EXPECT_EQ(seen.size(), 57u);
  for (Index u = 0; u < 57; ++u) EXPECT_EQ(seen.count(u), 1u);
}

TEST(BatcherTest, InferenceBatchPadsHistories) {
  SequenceBatch batch = SequenceBatcher::InferenceBatch(
      {{1, 2, 3, 4, 5}, {9}}, 3);
  EXPECT_EQ(batch.batch_size, 2);
  EXPECT_EQ(batch.items, (std::vector<Index>{3, 4, 5, -1, -1, 9}));
  for (Index t : batch.targets) EXPECT_EQ(t, -1);
  EXPECT_EQ(batch.valid,
            (std::vector<bool>{true, true, true, false, false, true}));
}

// -- Event stream: the online-learning ingest path ----------------------

std::string StreamPath(const std::string& tag) {
  return ::testing::TempDir() + "/isrec_stream_" + tag + ".log";
}

TEST(EventStreamTest, AppendThenPollRoundTrips) {
  const std::string path = StreamPath("roundtrip");
  std::remove(path.c_str());
  const std::vector<Interaction> events = {{0, 5}, {3, 17}, {1, 2}};
  ASSERT_TRUE(AppendEventStream(path, events).ok());

  EventStreamTailer tailer(path);
  Outcome<std::vector<Interaction>> polled = tailer.Poll();
  ASSERT_TRUE(polled.ok()) << polled.status().ToString();
  EXPECT_EQ(polled.value(), events);
  EXPECT_EQ(tailer.events_seen(), 3u);

  // Nothing new: the next poll is empty, not a replay.
  EXPECT_TRUE(tailer.Poll().value().empty());

  // Appends after the first poll are picked up incrementally.
  ASSERT_TRUE(AppendEventStream(path, {{2, 9}}).ok());
  polled = tailer.Poll();
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(polled.value(), (std::vector<Interaction>{{2, 9}}));
}

TEST(EventStreamTest, MissingFileIsEmptyNotError) {
  EventStreamTailer tailer(StreamPath("never_created"));
  Outcome<std::vector<Interaction>> polled = tailer.Poll();
  ASSERT_TRUE(polled.ok());  // The producer may simply not have started.
  EXPECT_TRUE(polled.value().empty());
}

TEST(EventStreamTest, PartialLineWaitsForItsNewline) {
  const std::string path = StreamPath("partial");
  std::remove(path.c_str());
  {
    std::ofstream out(path, std::ios::binary);
    out << "1 10\n2 2";  // Second line torn mid-write.
  }
  EventStreamTailer tailer(path);
  Outcome<std::vector<Interaction>> polled = tailer.Poll();
  ASSERT_TRUE(polled.ok());
  // Only the complete line is delivered; "2 2" stays buffered.
  EXPECT_EQ(polled.value(), (std::vector<Interaction>{{1, 10}}));
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "0\n3 7\n";  // Completes "2 20", then a full event.
  }
  polled = tailer.Poll();
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(polled.value(), (std::vector<Interaction>{{2, 20}, {3, 7}}));
  EXPECT_EQ(tailer.malformed_lines(), 0u);
}

TEST(EventStreamTest, MalformedLinesAreCountedAndSkipped) {
  const std::string path = StreamPath("malformed");
  std::remove(path.c_str());
  {
    std::ofstream out(path, std::ios::binary);
    out << "1 2\n"
        << "garbage\n"
        << "3\n"          // Too few fields.
        << "4 5 extra\n"  // Trailing junk.
        << "-1 9\n"       // Negative ids are not valid events.
        << "6 7\n";
  }
  EventStreamTailer tailer(path);
  Outcome<std::vector<Interaction>> polled = tailer.Poll();
  ASSERT_TRUE(polled.ok());
  EXPECT_EQ(polled.value(), (std::vector<Interaction>{{1, 2}, {6, 7}}));
  EXPECT_EQ(tailer.malformed_lines(), 4u);
}

TEST(EventStreamTest, TruncatedFileIsATypedError) {
  const std::string path = StreamPath("truncated");
  std::remove(path.c_str());
  ASSERT_TRUE(AppendEventStream(path, {{0, 1}, {2, 3}}).ok());
  EventStreamTailer tailer(path);
  ASSERT_TRUE(tailer.Poll().ok());
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << "9 9\n";  // Shorter than the consumed offset.
  }
  Outcome<std::vector<Interaction>> polled = tailer.Poll();
  EXPECT_FALSE(polled.ok());
  EXPECT_EQ(polled.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(polled.status().message().find("shrank"), std::string::npos);
}

TEST(EventStreamTest, ApplyEventsGrowsSequencesAndSkipsOutOfVocab) {
  Dataset dataset;
  dataset.name = "tiny";
  dataset.num_users = 2;
  dataset.num_items = 10;
  dataset.sequences = {{1, 2}, {3}};
  const std::vector<Interaction> events = {
      {0, 4},    // Applied.
      {1, 5},    // Applied.
      {0, 10},   // Item outside the 10-item vocabulary: skipped.
      {2, 1},    // User outside the vocabulary: skipped.
      {0, 6},    // Applied.
  };
  EXPECT_EQ(ApplyEvents(events, &dataset), 3);
  EXPECT_EQ(dataset.sequences[0], (std::vector<Index>{1, 2, 4, 6}));
  EXPECT_EQ(dataset.sequences[1], (std::vector<Index>{3, 5}));
}

TEST(EventStreamTest, FreshTailEventsAreEachUsersLastInteraction) {
  Dataset dataset;
  dataset.name = "tiny";
  dataset.num_users = 3;
  dataset.num_items = 10;
  dataset.sequences = {{1, 2}, {}, {3, 4, 5}};
  const std::vector<Interaction> tail = FreshTailEvents(dataset);
  // Empty sequences contribute nothing; the rest emit their last item.
  EXPECT_EQ(tail, (std::vector<Interaction>{{0, 2}, {2, 5}}));
}

}  // namespace
}  // namespace isrec::data
