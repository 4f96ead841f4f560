// ModelCatalog: segment stitching vs. full retrains, version-pinned lazy
// builds, blow-up fallback, and the stitched == from-scratch equivalence
// property across randomized compaction sequences.
#include "lsm/model_catalog.h"

#include <gtest/gtest.h>

#include <map>

#include "lsm/db.h"
#include "lsm/dbformat.h"
#include "table/table.h"
#include "tests/test_util.h"
#include "workload/dataset.h"

namespace lilsm {
namespace {

using testing_util::RandomGapKeys;
using testing_util::ScratchDir;

constexpr uint32_t kValueSize = 32;

class ModelCatalogTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::make_unique<ScratchDir>("modelcat");
    options_.env = Env::Default();
    options_.value_size = kValueSize;
    // Per-file tables train under the same config the catalog stitches
    // with, as the DB arranges; EpsilonDrift* below covers the mismatch.
    options_.index_config = config_;
    cache_ = std::make_unique<TableCache>(options_, dir_->path(), 64);
    keys_ = RandomGapKeys(9000, 11);
  }

  /// Builds one table over keys_[begin, end) with a fresh file number.
  FileMeta BuildFile(size_t begin, size_t end) {
    const uint64_t number = next_file_number_++;
    std::unique_ptr<TableBuilder> builder;
    EXPECT_LILSM_OK(TableBuilder::Open(
        options_, TableFileName(dir_->path(), number), &builder));
    for (size_t i = begin; i < end; i++) {
      EXPECT_LILSM_OK(builder->Add(keys_[i], PackTag(i + 1, kTypeValue),
                                   DeriveValue(keys_[i], kValueSize)));
    }
    EXPECT_LILSM_OK(builder->Finish());
    FileMeta meta;
    meta.number = number;
    meta.entries = end - begin;
    meta.smallest = keys_[begin];
    meta.largest = keys_[end - 1];
    return meta;
  }

  /// Partitions keys_[0, total) into files at the given cut points.
  std::vector<FileMeta> BuildFiles(const std::vector<size_t>& cuts,
                                   size_t total) {
    std::vector<FileMeta> files;
    size_t begin = 0;
    for (size_t cut : cuts) {
      files.push_back(BuildFile(begin, cut));
      begin = cut;
    }
    files.push_back(BuildFile(begin, total));
    return files;
  }

  /// Asserts every key of `files` gets a window containing its local
  /// position.
  void CheckWindows(const LevelModel& model,
                    const std::vector<FileMeta>& files) {
    size_t global = 0;
    for (size_t f = 0; f < files.size(); f++) {
      for (uint64_t i = 0; i < files[f].entries; i++, global++) {
        size_t lo = 0, hi = 0;
        ASSERT_TRUE(
            ModelCatalog::PredictInFile(model, keys_[global], f, &lo, &hi));
        ASSERT_LE(lo, i) << "global key index " << global;
        ASSERT_GE(hi, i) << "global key index " << global;
        ASSERT_LT(hi, files[f].entries);
      }
    }
  }

  std::unique_ptr<ScratchDir> dir_;
  TableOptions options_;
  std::unique_ptr<TableCache> cache_;
  std::vector<Key> keys_;
  uint64_t next_file_number_ = 1;
  Stats stats_;
  IndexConfig config_ = IndexConfig::FromPositionBoundary(32);
};

TEST_F(ModelCatalogTest, StitchedModelPredictsAcrossFiles) {
  ModelCatalog catalog(Env::Default(), &stats_);
  std::vector<FileMeta> files = BuildFiles({3000, 6000}, 9000);
  LevelModelRef model;
  ASSERT_LILSM_OK(catalog.BuildForInstall(files, cache_.get(),
                                          IndexType::kPGM, config_, nullptr,
                                          &model));
  ASSERT_NE(model, nullptr);
  EXPECT_TRUE(model->stitched);
  EXPECT_GT(model->MemoryUsage(), 0u);
  EXPECT_EQ(model->cumulative.back(), 9000u);
  // Stitching re-reads no keys: the bytes counter stays untouched.
  EXPECT_EQ(stats_.Count(Counter::kModelBuildBytesRead), 0u);
  EXPECT_EQ(stats_.Count(Counter::kModelsStitched), 1u);
  EXPECT_GT(stats_.TimerCount(Timer::kModelStitch), 0u);
  CheckWindows(*model, files);
}

TEST_F(ModelCatalogTest, StitchWindowsAgreeWithFullRetrain) {
  for (IndexType type :
       {IndexType::kPLR, IndexType::kFITingTree, IndexType::kPGM}) {
    SCOPED_TRACE(IndexTypeName(type));
    ModelCatalog catalog(Env::Default(), &stats_);
    std::vector<FileMeta> files = BuildFiles({2500, 4000, 7000}, 9000);
    LevelModelRef stitched, retrained;
    ASSERT_LILSM_OK(catalog.BuildForInstall(files, cache_.get(), type,
                                            config_, nullptr, &stitched));
    ASSERT_LILSM_OK(catalog.TrainFull(files, cache_.get(), type, config_,
                                      Timer::kModelRetrain, &retrained));
    ASSERT_TRUE(stitched->stitched);
    ASSERT_FALSE(retrained->stitched);
    EXPECT_EQ(stitched->cumulative, retrained->cumulative);
    // Both models must bound every present key's true position; the
    // windows need not be byte-identical (different segmentation), but
    // both must be correct.
    CheckWindows(*stitched, files);
    CheckWindows(*retrained, files);
  }
}

// The equivalence property: a model stitched incrementally across
// randomized "compaction" sequences (re-partitions of the level, cache
// hits for carried-over files) predicts entry bounds identical to one
// stitched from scratch over the same final file set.
TEST_F(ModelCatalogTest, IncrementalStitchMatchesFromScratchAcrossChurn) {
  for (uint64_t seed : {1u, 7u, 23u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ModelCatalog incremental(Env::Default(), &stats_);
    Random rnd(seed);
    LevelModelRef model;
    std::vector<FileMeta> files;
    for (int round = 0; round < 6; round++) {
      // Re-partition the level at random cut points, reusing the files
      // before the first cut (a partial compaction rewrites a suffix).
      const size_t keep = files.empty() ? 0 : rnd.Uniform(files.size());
      std::vector<FileMeta> next(files.begin(), files.begin() + keep);
      size_t begin = 0;
      for (const FileMeta& meta : next) begin += meta.entries;
      while (begin < 9000) {
        const size_t len = std::min<size_t>(9000 - begin,
                                            500 + rnd.Uniform(2500));
        next.push_back(BuildFile(begin, begin + len));
        begin += len;
      }
      files = std::move(next);
      ASSERT_LILSM_OK(incremental.BuildForInstall(
          files, cache_.get(), IndexType::kPGM, config_, model.get(),
          &model));
      ASSERT_TRUE(model->stitched);
      CheckWindows(*model, files);

      ModelCatalog scratch(Env::Default(), &stats_);
      LevelModelRef fresh;
      ASSERT_LILSM_OK(scratch.BuildForInstall(files, cache_.get(),
                                              IndexType::kPGM, config_,
                                              nullptr, &fresh));
      ASSERT_EQ(model->cumulative, fresh->cumulative);
      size_t global = 0;
      for (size_t f = 0; f < files.size(); f++) {
        for (uint64_t i = 0; i < files[f].entries; i++, global++) {
          size_t ilo = 0, ihi = 0, slo = 0, shi = 0;
          ASSERT_TRUE(ModelCatalog::PredictInFile(*model, keys_[global], f,
                                                  &ilo, &ihi));
          ASSERT_TRUE(ModelCatalog::PredictInFile(*fresh, keys_[global], f,
                                                  &slo, &shi));
          ASSERT_EQ(ilo, slo) << "round " << round << " key " << global;
          ASSERT_EQ(ihi, shi) << "round " << round << " key " << global;
        }
      }
    }
  }
}

// A runtime config narrower than what the per-file indexes were trained
// under must not shrink the stitched model's windows: the stitch adopts
// the widest per-file training epsilon, so present keys stay covered.
TEST_F(ModelCatalogTest, EpsilonDriftDoesNotUnderCover) {
  ModelCatalog catalog(Env::Default(), &stats_);
  std::vector<FileMeta> files = BuildFiles({3000, 6000}, 9000);
  IndexConfig narrow = IndexConfig::FromPositionBoundary(4);  // epsilon 2
  LevelModelRef model;
  ASSERT_LILSM_OK(catalog.BuildForInstall(files, cache_.get(),
                                          IndexType::kPGM, narrow, nullptr,
                                          &model));
  ASSERT_TRUE(model->stitched);
  CheckWindows(*model, files);  // files were trained at epsilon 16
}

TEST_F(ModelCatalogTest, CanStitchMatchesSegmentBasedTypes) {
  EXPECT_TRUE(ModelCatalog::CanStitch(IndexType::kPLR));
  EXPECT_TRUE(ModelCatalog::CanStitch(IndexType::kFITingTree));
  EXPECT_TRUE(ModelCatalog::CanStitch(IndexType::kPGM));
  EXPECT_FALSE(ModelCatalog::CanStitch(IndexType::kRMI));
  EXPECT_FALSE(ModelCatalog::CanStitch(IndexType::kRadixSpline));
  EXPECT_FALSE(ModelCatalog::CanStitch(IndexType::kPLEX));
  EXPECT_FALSE(ModelCatalog::CanStitch(IndexType::kFencePointer));
}

TEST_F(ModelCatalogTest, UnsupportedTypeFallsBackToRetrain) {
  ModelCatalog catalog(Env::Default(), &stats_);
  std::vector<FileMeta> files = BuildFiles({4500}, 9000);
  LevelModelRef model;
  ASSERT_LILSM_OK(catalog.BuildForInstall(files, cache_.get(),
                                          IndexType::kRMI, config_, nullptr,
                                          &model));
  EXPECT_FALSE(model->stitched);
  EXPECT_EQ(stats_.Count(Counter::kModelRetrains), 1u);
  EXPECT_GT(stats_.Count(Counter::kModelBuildBytesRead), 0u);
  CheckWindows(*model, files);
}

TEST_F(ModelCatalogTest, BlowupRatioForcesRetrain) {
  std::vector<FileMeta> files = BuildFiles({3000, 6000}, 9000);
  // A previous model whose baseline density is far below any stitch's
  // puts every stitch past kStitchBlowup times the baseline.
  LevelModel sparse;
  sparse.baseline_density = 1e-9;
  {
    ModelCatalog catalog(Env::Default(), &stats_);
    LevelModelRef model;
    ASSERT_LILSM_OK(catalog.BuildForInstall(files, cache_.get(),
                                            IndexType::kPGM, config_,
                                            &sparse, &model));
    EXPECT_FALSE(model->stitched);
    EXPECT_EQ(stats_.Count(Counter::kModelRetrains), 1u);
  }
  {
    // The install path defers instead of scanning: null model, no
    // retrain, the read path's lazy build picks it up later.
    ModelCatalog catalog(Env::Default(), &stats_);
    LevelModelRef model;
    const uint64_t retrains_before = stats_.Count(Counter::kModelRetrains);
    ASSERT_LILSM_OK(catalog.BuildForInstall(
        files, cache_.get(), IndexType::kPGM, config_, &sparse, &model,
        ModelCatalog::StitchFallback::kDefer));
    EXPECT_EQ(model, nullptr);
    EXPECT_EQ(stats_.Count(Counter::kModelRetrains), retrains_before);
  }
  {
    // Against its own density (no previous model) a stitch is in bounds.
    ModelCatalog catalog(Env::Default(), &stats_);
    LevelModelRef model;
    ASSERT_LILSM_OK(catalog.BuildForInstall(files, cache_.get(),
                                            IndexType::kPGM, config_,
                                            nullptr, &model));
    EXPECT_TRUE(model->stitched);
  }
}

TEST_F(ModelCatalogTest, PruneDropsDeadFileSegments) {
  ModelCatalog catalog(Env::Default(), &stats_);
  std::vector<FileMeta> files = BuildFiles({3000, 6000}, 9000);
  LevelModelRef model;
  ASSERT_LILSM_OK(catalog.BuildForInstall(files, cache_.get(),
                                          IndexType::kPGM, config_, nullptr,
                                          &model));
  EXPECT_EQ(catalog.SegmentCacheEntries(), 3u);
  Version v;  // standalone: keeps only the first file alive
  v.files_[1].push_back(files[0]);
  catalog.Prune(v);
  EXPECT_EQ(catalog.SegmentCacheEntries(), 1u);
}

// Lazy-policy regression (the old stamp/invalidate semantics, folded into
// version-pinned slots): one build per version, cached on re-reads, and a
// fresh version starts empty instead of consulting a mismatched model.
TEST_F(ModelCatalogTest, LazyGetOrBuildIsVersionPinned) {
  ModelCatalog catalog(Env::Default(), &stats_);
  std::vector<FileMeta> files = BuildFiles({3000, 6000}, 9000);

  Version v1;
  v1.files_[1] = files;
  LevelModelRef m1 = catalog.GetOrBuild(v1, 1, cache_.get(), IndexType::kPGM,
                                        config_);
  ASSERT_NE(m1, nullptr);
  EXPECT_EQ(stats_.TimerCount(Timer::kLevelIndexBuild), 1u);
  EXPECT_GT(stats_.Count(Counter::kModelBuildBytesRead), 0u);
  CheckWindows(*m1, files);

  // Same version: cached, no rebuild.
  LevelModelRef again = catalog.GetOrBuild(v1, 1, cache_.get(),
                                           IndexType::kPGM, config_);
  EXPECT_EQ(again.get(), m1.get());
  EXPECT_EQ(stats_.TimerCount(Timer::kLevelIndexBuild), 1u);

  // A new version (same files, new install) starts empty and rebuilds —
  // the lazy policy's invalidate-on-install behavior.
  Version v2;
  v2.files_[1] = files;
  LevelModelRef m2 = catalog.GetOrBuild(v2, 1, cache_.get(), IndexType::kPGM,
                                        config_);
  ASSERT_NE(m2, nullptr);
  EXPECT_NE(m2.get(), m1.get());
  EXPECT_EQ(stats_.TimerCount(Timer::kLevelIndexBuild), 2u);
  // v1's reader keeps its own model: no downgrade, no fallback dance.
  EXPECT_EQ(catalog.GetOrBuild(v1, 1, cache_.get(), IndexType::kPGM,
                               config_).get(),
            m1.get());

  // Empty levels never build.
  EXPECT_EQ(catalog.GetOrBuild(v1, 2, cache_.get(), IndexType::kPGM,
                               config_),
            nullptr);
}

// End-to-end: the two policies must produce identical Get results across
// a randomized write/delete/flush/compact workload at level granularity.
TEST(ModelPolicyEquivalenceTest, PoliciesAgreeOnGetResults) {
  ScratchDir dir("modelpolicy");
  auto open = [&](LevelModelPolicy policy, const std::string& name,
                  std::unique_ptr<DB>* db) {
    DBOptions options;
    options.write_buffer_size = 64 << 10;
    options.sstable_target_size = 32 << 10;
    options.l0_compaction_trigger = 2;
    options.value_size = kValueSize;
    options.index_granularity = IndexGranularity::kLevel;
    options.level_model_policy = policy;
    ASSERT_LILSM_OK(DB::Open(options, dir.path() + "/" + name, db));
  };
  std::unique_ptr<DB> lazy, maintained;
  open(LevelModelPolicy::kLazyRebuild, "lazy", &lazy);
  open(LevelModelPolicy::kCompactionMaintained, "maintained", &maintained);

  std::map<Key, std::string> model;
  Random rnd(29);
  std::string lv, mv;
  for (int round = 0; round < 5; round++) {
    for (int i = 0; i < 2000; i++) {
      const Key key = 1 + rnd.Uniform(6000) * 7;
      if (rnd.OneIn(6)) {
        ASSERT_LILSM_OK(lazy->Delete(key));
        ASSERT_LILSM_OK(maintained->Delete(key));
        model.erase(key);
      } else {
        const std::string value = DeriveValue(key ^ round, kValueSize);
        ASSERT_LILSM_OK(lazy->Put(key, value));
        ASSERT_LILSM_OK(maintained->Put(key, value));
        model[key] = value;
      }
    }
    ASSERT_LILSM_OK(lazy->FlushMemTable());
    ASSERT_LILSM_OK(maintained->FlushMemTable());
    for (const auto& [key, expected] : model) {
      ASSERT_LILSM_OK(lazy->Get(key, &lv));
      ASSERT_LILSM_OK(maintained->Get(key, &mv));
      ASSERT_EQ(lv, expected) << "round " << round << " key " << key;
      ASSERT_EQ(mv, expected) << "round " << round << " key " << key;
    }
    // Absent keys (never multiples of 7 + 1's complement set): both miss.
    for (int i = 0; i < 200; i++) {
      const Key absent = 2 + rnd.Uniform(6000) * 7;
      ASSERT_EQ(lazy->Get(absent, &lv).IsNotFound(),
                maintained->Get(absent, &mv).IsNotFound());
    }
  }
  // The maintained engine stitched on the write path and re-read fewer
  // model-build bytes than the lazy engine's read-path rebuilds.
  EXPECT_GT(maintained->stats()->Count(Counter::kModelsStitched), 0u);
  EXPECT_LT(maintained->stats()->Count(Counter::kModelBuildBytesRead),
            lazy->stats()->Count(Counter::kModelBuildBytesRead));
}

}  // namespace
}  // namespace lilsm
