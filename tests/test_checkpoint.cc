#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "mc/checkpoint.h"
#include "mc/monte_carlo.h"
#include "mc/sensitivity.h"
#include "mc/threshold.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace vlq {
namespace {

std::string
tmpPath(const std::string& name)
{
    return testing::TempDir() + "vlq_ckpt_" + name;
}

void
removeFile(const std::string& path)
{
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

void
writeFile(const std::string& path, const std::string& content)
{
    std::ofstream out(path, std::ios::trunc);
    out << content;
}

/** `text` with " <token>" appended to its line `index` (0-based). */
std::string
appendToLine(std::string text, size_t index, const std::string& token)
{
    size_t begin = 0;
    for (size_t i = 0; i < index; ++i)
        begin = text.find('\n', begin) + 1;
    text.insert(std::min(text.find('\n', begin), text.size()),
                " " + token);
    return text;
}

GeneratorConfig
ckptConfig(int d, double p)
{
    GeneratorConfig cfg;
    cfg.distance = d;
    cfg.cavityDepth = 10;
    cfg.noise = NoiseModel::atPhysicalRate(
        p, HardwareParams::transmonsWithMemory());
    return cfg;
}

TEST(Checkpoint, RoundTrip)
{
    std::string path = tmpPath("roundtrip.ckpt");
    removeFile(path);

    McCheckpoint a;
    ASSERT_EQ(a.open(path, "seed=1 trials=100"), "");
    EXPECT_TRUE(a.enabled());
    EXPECT_EQ(a.numPoints(), 0u);
    a.update(0x1111, CheckpointEntry{64, 3, false});
    a.update(0x2222, CheckpointEntry{100, 7, true});
    ASSERT_EQ(a.save(), "");

    // Header is self-describing.
    std::string text = readFile(path);
    EXPECT_EQ(text.rfind("vlq-mc-checkpoint 1\n", 0), 0u);
    EXPECT_NE(text.find("config seed=1 trials=100"), std::string::npos);
    EXPECT_NE(text.find("end 2"), std::string::npos);

    McCheckpoint b;
    ASSERT_EQ(b.open(path, "seed=1 trials=100"), "");
    ASSERT_EQ(b.numPoints(), 2u);
    const CheckpointEntry* e1 = b.find(0x1111);
    const CheckpointEntry* e2 = b.find(0x2222);
    ASSERT_NE(e1, nullptr);
    ASSERT_NE(e2, nullptr);
    EXPECT_EQ(e1->trialsDone, 64u);
    EXPECT_EQ(e1->failures, 3u);
    EXPECT_FALSE(e1->done);
    EXPECT_EQ(e2->trialsDone, 100u);
    EXPECT_EQ(e2->failures, 7u);
    EXPECT_TRUE(e2->done);
    EXPECT_EQ(b.find(0x3333), nullptr);
    removeFile(path);
}

TEST(Checkpoint, SavedFilesAreByteDeterministic)
{
    std::string pa = tmpPath("det_a.ckpt");
    std::string pb = tmpPath("det_b.ckpt");
    removeFile(pa);
    removeFile(pb);
    // Same entries inserted in different orders serialize identically
    // (points are sorted by key), which is what lets the CI smoke step
    // compare a clean and a kill/resume run with cmp.
    McCheckpoint a;
    ASSERT_EQ(a.open(pa, "seed=9"), "");
    a.update(2, CheckpointEntry{10, 1, true});
    a.update(1, CheckpointEntry{20, 2, true});
    ASSERT_EQ(a.save(), "");
    McCheckpoint b;
    ASSERT_EQ(b.open(pb, "seed=9"), "");
    b.update(1, CheckpointEntry{20, 2, true});
    b.update(2, CheckpointEntry{10, 1, true});
    ASSERT_EQ(b.save(), "");
    EXPECT_EQ(readFile(pa), readFile(pb));
    removeFile(pa);
    removeFile(pb);
}

TEST(Checkpoint, RejectsCorrupt)
{
    std::string path = tmpPath("corrupt.ckpt");
    writeFile(path, "total garbage\nnot a checkpoint\n");
    McCheckpoint c;
    std::string err = c.open(path, "seed=1");
    EXPECT_NE(err, "");
    EXPECT_NE(err.find("not a vlq-mc-checkpoint"), std::string::npos);
    EXPECT_FALSE(c.enabled());

    writeFile(path, "vlq-mc-checkpoint 1\nfingerprint zzzz\nconfig x\n"
                    "end 0\n");
    EXPECT_NE(c.open(path, "x"), "");

    // Malformed point line ("\npoint": the magic line itself contains
    // the substring "point").
    McCheckpoint good;
    removeFile(path);
    ASSERT_EQ(good.open(path, "seed=1"), "");
    good.update(7, CheckpointEntry{10, 2, false});
    ASSERT_EQ(good.save(), "");
    std::string text = readFile(path);
    std::string header = text.substr(0, text.find("\npoint") + 1);
    writeFile(path, header +
                    "point xyz trials=banana failures=2 done=0\nend 1\n");
    EXPECT_NE(c.open(path, "seed=1"), "");

    // failures > trials is rejected as corrupt.
    writeFile(path, header +
                    "point 0000000000000007 trials=1 failures=2 done=0\n"
                    "end 1\n");
    std::string countErr = c.open(path, "seed=1");
    EXPECT_NE(countErr.find("failures > trials"), std::string::npos);

    // strtoull stops at a NUL, but the token has bytes after it:
    // "trials=100<NUL>7" is malformed, not 100 trials.
    using namespace std::string_literals;
    writeFile(path, header + "point 0000000000000007 trials=100\0" "7"
                             " failures=2 done=0\nend 1\n"s);
    EXPECT_NE(c.open(path, "seed=1").find("malformed point line"),
              std::string::npos);
    writeFile(path, header + "point 0000000000000007 trials=100"
                             " failures=2 done=0\nend 1\0" "5\n"s);
    EXPECT_NE(c.open(path, "seed=1").find("end marker count mismatch"),
              std::string::npos);

    // A token appended to the header (line 1), fingerprint (2) or end
    // line (5) is junk, as it is on a point line.
    for (size_t line : {0, 1, 4}) {
        writeFile(path, appendToLine(text, line, "junk"));
        EXPECT_NE(c.open(path, "seed=1").find(
                      "trailing junk on line " + std::to_string(line + 1)),
                  std::string::npos);
    }
    // The fingerprint must hash the file's own config line, even when
    // it matches the caller's summary.
    std::string edited = text;
    edited.replace(edited.find("config seed=1"), 13, "config seed=2");
    writeFile(path, edited);
    EXPECT_NE(c.open(path, "seed=1").find(
                  "fingerprint does not match config line"),
              std::string::npos);
    removeFile(path);
}

TEST(Checkpoint, RejectsTruncated)
{
    std::string path = tmpPath("truncated.ckpt");
    removeFile(path);
    McCheckpoint a;
    ASSERT_EQ(a.open(path, "seed=1"), "");
    a.update(1, CheckpointEntry{10, 1, false});
    a.update(2, CheckpointEntry{20, 2, false});
    ASSERT_EQ(a.save(), "");

    // Drop the trailing end marker: a partially-flushed file.
    std::string text = readFile(path);
    writeFile(path, text.substr(0, text.find("end")));
    McCheckpoint b;
    std::string err = b.open(path, "seed=1");
    EXPECT_NE(err, "");
    EXPECT_NE(err.find("truncated"), std::string::npos);

    // Drop a point line but keep the end marker: count mismatch.
    std::string cut = text;
    size_t p2 = cut.rfind("point");
    cut.erase(p2, cut.find('\n', p2) - p2 + 1);
    writeFile(path, cut);
    err = b.open(path, "seed=1");
    EXPECT_NE(err, "");
    EXPECT_NE(err.find("count mismatch"), std::string::npos);
    removeFile(path);
}

TEST(Checkpoint, RejectsVersionMismatch)
{
    std::string path = tmpPath("version.ckpt");
    writeFile(path,
              "vlq-mc-checkpoint 99\nfingerprint 0000000000000000\n"
              "config x\nend 0\n");
    McCheckpoint c;
    std::string err = c.open(path, "x");
    EXPECT_NE(err, "");
    EXPECT_NE(err.find("version"), std::string::npos);
    removeFile(path);
}

TEST(Checkpoint, RejectsFingerprintMismatch)
{
    std::string path = tmpPath("fingerprint.ckpt");
    removeFile(path);
    McCheckpoint a;
    ASSERT_EQ(a.open(path, "seed=1 trials=100 decoder=mwpm"), "");
    ASSERT_EQ(a.save(), "");

    McCheckpoint b;
    std::string err = b.open(path, "seed=2 trials=100 decoder=mwpm");
    EXPECT_NE(err, "");
    EXPECT_NE(err.find("fingerprint mismatch"), std::string::npos);
    // The error shows both configs so the operator can see what moved.
    EXPECT_NE(err.find("seed=1"), std::string::npos);
    EXPECT_NE(err.find("seed=2"), std::string::npos);
    removeFile(path);
}

TEST(Checkpoint, IgnoresLeftoverTempFile)
{
    std::string path = tmpPath("leftover.ckpt");
    removeFile(path);

    // Crash before the first rename: only a temp file exists. The tmp
    // was never committed, so the run starts fresh.
    writeFile(path + ".tmp", "half-written garb");
    McCheckpoint a;
    ASSERT_EQ(a.open(path, "seed=1"), "");
    EXPECT_EQ(a.numPoints(), 0u);
    a.update(1, CheckpointEntry{5, 0, false});
    ASSERT_EQ(a.save(), "");

    // Crash mid-save after a good commit: stale tmp next to a valid
    // main file. The main file is the consistent state.
    writeFile(path + ".tmp", "half-written garb");
    McCheckpoint b;
    ASSERT_EQ(b.open(path, "seed=1"), "");
    ASSERT_EQ(b.numPoints(), 1u);
    EXPECT_EQ(b.find(1)->trialsDone, 5u);
    removeFile(path);
}

TEST(Checkpoint, PointKeySeparatesConfigs)
{
    GeneratorConfig base = ckptConfig(3, 5e-3);
    uint64_t key = checkpointPointKey(EmbeddingKind::Compact, base);
    EXPECT_EQ(checkpointPointKey(EmbeddingKind::Compact, base), key);

    GeneratorConfig other = base;
    other.memoryBasis = CheckBasis::X;
    EXPECT_NE(checkpointPointKey(EmbeddingKind::Compact, other), key);
    other = base;
    other.distance = 5;
    EXPECT_NE(checkpointPointKey(EmbeddingKind::Compact, other), key);
    other = base;
    other.noise.p2 *= 1.0000001;
    EXPECT_NE(checkpointPointKey(EmbeddingKind::Compact, other), key);
    EXPECT_NE(checkpointPointKey(EmbeddingKind::Natural, base), key);
}

TEST(Checkpoint, PointKeyCoversCompositeNoiseSources)
{
    GeneratorConfig base = ckptConfig(3, 5e-3);
    uint64_t key = checkpointPointKey(EmbeddingKind::Compact, base);

    // A composite model with every source at its default is the same
    // run as the flat model: existing checkpoint files must keep
    // resuming, so the key is unchanged.
    GeneratorConfig uniform = base;
    uniform.noise.bias.rX = uniform.noise.bias.rY =
        uniform.noise.bias.rZ = 1.0;
    uniform.noise.readout.p0to1 = -1.0;
    uniform.noise.erasure.fraction = 0.0;
    ASSERT_TRUE(uniform.noise.isUniform());
    EXPECT_EQ(checkpointPointKey(EmbeddingKind::Compact, uniform), key);

    // Each source, once active, changes the generated circuit and so
    // must change the key -- and distinct settings get distinct keys.
    GeneratorConfig biased = base;
    biased.noise.bias.rZ = 10.0;
    uint64_t biasedKey =
        checkpointPointKey(EmbeddingKind::Compact, biased);
    EXPECT_NE(biasedKey, key);
    biased.noise.bias.rZ = 100.0;
    EXPECT_NE(checkpointPointKey(EmbeddingKind::Compact, biased),
              biasedKey);

    GeneratorConfig readout = base;
    readout.noise.readout.p0to1 = 0.02;
    readout.noise.readout.p1to0 = 0.005;
    EXPECT_NE(checkpointPointKey(EmbeddingKind::Compact, readout), key);

    GeneratorConfig erased = base;
    erased.noise.erasure.fraction = 0.5;
    uint64_t erasedKey =
        checkpointPointKey(EmbeddingKind::Compact, erased);
    EXPECT_NE(erasedKey, key);
    erased.noise.erasure.heralded = false;
    EXPECT_NE(checkpointPointKey(EmbeddingKind::Compact, erased),
              erasedKey);

    GeneratorConfig damped = base;
    damped.noise.damping.gamma = 1e-3;
    EXPECT_NE(checkpointPointKey(EmbeddingKind::Compact, damped), key);
}

/** Save a shard with the given config summary and points. */
void
writeShard(const std::string& path, const std::string& summary,
           const std::map<uint64_t, CheckpointEntry>& points)
{
    removeFile(path);
    McCheckpoint shard;
    ASSERT_EQ(shard.open(path, summary), "");
    for (const auto& [key, entry] : points)
        shard.update(key, entry);
    ASSERT_EQ(shard.save(), "");
}

/** The points of the merged file at `path`. */
std::map<uint64_t, CheckpointEntry>
mergedPoints(const std::string& path)
{
    McCheckpoint merged;
    EXPECT_EQ(merged.load(path), "");
    return merged.points();
}

TEST(CheckpointMerge, SumsTrialsAndFailuresPerPoint)
{
    const std::string a = tmpPath("merge_sum_a.ckpt");
    const std::string b = tmpPath("merge_sum_b.ckpt");
    const std::string out = tmpPath("merge_sum_out.ckpt");
    writeShard(a, "scan=threshold seed=101 trials=3000",
               {{1, {3000, 40, true}}, {2, {3000, 7, true}}});
    writeShard(b, "scan=threshold seed=202 trials=3000",
               {{1, {3000, 44, true}}, {3, {1000, 2, true}}});
    ASSERT_EQ(mergeCheckpoints({a, b}, out), "");
    // Points 2 and 3 are each missing from one shard, so not done.
    const std::map<uint64_t, CheckpointEntry> expected{
        {1, {6000, 84, true}}, {2, {3000, 7, false}}, {3, {1000, 2, false}}};
    EXPECT_EQ(mergedPoints(out), expected);

    // A sum past 64 bits is rejected, not wrapped.
    writeShard(b, "scan=threshold seed=202 trials=3000",
               {{2, {UINT64_MAX, 0, true}}});
    EXPECT_NE(mergeCheckpoints({a, b}, out).find("overflows"),
              std::string::npos);
    removeFile(a);
    removeFile(b);
    removeFile(out);
}

TEST(CheckpointMerge, PointIsDoneOnlyWhenEveryShardsCopyIs)
{
    const std::string a = tmpPath("merge_done_a.ckpt");
    const std::string b = tmpPath("merge_done_b.ckpt");
    const std::string out = tmpPath("merge_done_out.ckpt");
    writeShard(a, "seed=1 trials=64",
               {{1, {64, 1, true}}, {2, {64, 2, true}}});
    writeShard(b, "seed=2 trials=64",
               {{1, {32, 1, false}}, {2, {64, 3, true}}});
    ASSERT_EQ(mergeCheckpoints({a, b}, out), "");
    const std::map<uint64_t, CheckpointEntry> expected{
        {1, {96, 2, false}}, {2, {128, 5, true}}};
    EXPECT_EQ(mergedPoints(out), expected);
    removeFile(a);
    removeFile(b);
    removeFile(out);
}

TEST(CheckpointMerge, PointMissingFromAShardIsNotDone)
{
    // Shard b was killed before it reached point 2: the merged point
    // holds only a's trials, so it is not done.
    const std::string a = tmpPath("merge_missing_a.ckpt");
    const std::string b = tmpPath("merge_missing_b.ckpt");
    const std::string out = tmpPath("merge_missing_out.ckpt");
    writeShard(a, "seed=1 trials=64",
               {{1, {64, 1, true}}, {2, {64, 2, true}}});
    writeShard(b, "seed=2 trials=64", {{1, {64, 3, true}}});
    ASSERT_EQ(mergeCheckpoints({a, b}, out), "");
    const std::map<uint64_t, CheckpointEntry> expected{
        {1, {128, 4, true}}, {2, {64, 2, false}}};
    EXPECT_EQ(mergedPoints(out), expected);
    removeFile(a);
    removeFile(b);
    removeFile(out);
}

TEST(CheckpointMerge, MergedSummaryListsEverySeedFirst)
{
    std::vector<std::string> shards;
    for (const char* seed : {"101", "202", "7"}) {
        shards.push_back(tmpPath(std::string("merge_seeds_") + seed));
        writeShard(shards.back(),
                   std::string("scan=threshold seed=") + seed
                       + " trials=3000 decoder=mwpm",
                   {{9, {3000, 5, true}}});
    }
    const std::string out = tmpPath("merge_seeds_out.ckpt");
    ASSERT_EQ(mergeCheckpoints(shards, out), "");
    const std::string summary =
        "seed=merged:101,202,7 scan=threshold trials=3000 decoder=mwpm";
    McCheckpoint merged;
    ASSERT_EQ(merged.load(out), "");
    EXPECT_EQ(merged.summary(), summary);
    EXPECT_EQ(merged.fingerprint(), fnv1a64(summary));
    EXPECT_EQ(readFile(out),
              "vlq-mc-checkpoint 1\nfingerprint " + hex16(fnv1a64(summary))
                  + "\nconfig " + summary
                  + "\npoint 0000000000000009 trials=9000 failures=15"
                    " done=1\nend 1\n");
    for (const std::string& shard : shards)
        removeFile(shard);
    removeFile(out);
}

TEST(CheckpointMerge, RejectsConfigsThatDifferBeyondTheSeed)
{
    const std::string a = tmpPath("merge_cfg_a.ckpt");
    const std::string b = tmpPath("merge_cfg_b.ckpt");
    const std::string c = tmpPath("merge_cfg_c.ckpt");
    const std::string out = tmpPath("merge_cfg_out.ckpt");
    writeShard(a, "seed=101 trials=3000 decoder=mwpm batch=256", {});
    writeShard(b, "seed=202 trials=3001 decoder=union-find batch=256", {});
    writeShard(c, "seed=303 trials=3000 decoder=mwpm batch=256 k=10", {});
    removeFile(out);
    EXPECT_EQ(mergeCheckpoints({a, b}, out),
              b + ": config mismatch vs " + a
                  + " (differs in: decoder, trials) -- shards of "
                    "different runs cannot be merged");
    EXPECT_NE(mergeCheckpoints({a, c}, out).find("(differs in: k)"),
              std::string::npos);
    EXPECT_FALSE(std::ifstream(out).is_open());
    removeFile(a);
    removeFile(b);
    removeFile(c);
}

TEST(CheckpointMerge, SameSeedShardsOverlap)
{
    const std::string a = tmpPath("merge_overlap_a.ckpt");
    const std::string b = tmpPath("merge_overlap_b.ckpt");
    const std::string out = tmpPath("merge_overlap_out.ckpt");
    writeShard(a, "seed=101 trials=64", {{1, {64, 1, true}}});
    writeShard(b, "seed=202 trials=64", {{1, {64, 2, true}}});
    // A rejected merge leaves the output as it was.
    removeFile(out);
    writeFile(out, "previous merge\n");
    const std::string err = mergeCheckpoints({a, b, a}, out);
    EXPECT_EQ(err, a + ": overlaps " + a + " -- both use seed=101, so "
                   "their trial ranges overlap and merging would "
                   "double-count");
    EXPECT_EQ(readFile(out), "previous merge\n");
    EXPECT_FALSE(std::ifstream(out + ".tmp").is_open());
    removeFile(a);
    removeFile(b);
    removeFile(out);
}

TEST(CheckpointMerge, MetaLineShardMergesToTheSameBytes)
{
    const std::string a = tmpPath("merge_meta_a.ckpt");
    const std::string b = tmpPath("merge_meta_b.ckpt");
    const std::string bMeta = tmpPath("merge_meta_b_meta.ckpt");
    const std::string out = tmpPath("merge_meta_out.ckpt");
    const std::string outMeta = tmpPath("merge_meta_out_meta.ckpt");
    writeShard(a, "seed=101 trials=64", {{1, {64, 1, true}}});
    writeShard(b, "seed=202 trials=64", {{1, {64, 2, true}}});
    std::string text = readFile(b);
    text.insert(text.find('\n', text.find("\nconfig ") + 1) + 1,
                "meta compute=simd\n");
    writeFile(bMeta, text);
    ASSERT_EQ(mergeCheckpoints({a, b}, out), "");
    ASSERT_EQ(mergeCheckpoints({a, bMeta}, outMeta), "");
    EXPECT_EQ(readFile(out), readFile(outMeta));
    for (const std::string& path : {a, b, bMeta, out, outMeta})
        removeFile(path);
}

TEST(CheckpointMerge, MissingShardIsAnError)
{
    const std::string a = tmpPath("merge_missing_a.ckpt");
    const std::string missing = tmpPath("merge_missing_none.ckpt");
    const std::string out = tmpPath("merge_missing_out.ckpt");
    writeShard(a, "seed=101 trials=64", {{1, {64, 1, true}}});
    removeFile(missing);
    removeFile(out);
    // load() never starts fresh, unlike open().
    McCheckpoint shard;
    EXPECT_NE(shard.load(missing), "");
    EXPECT_FALSE(shard.enabled());
    EXPECT_NE(mergeCheckpoints({a, missing}, out).find(missing),
              std::string::npos);
    EXPECT_FALSE(std::ifstream(out).is_open());
    removeFile(a);
}

TEST(CheckpointFuzz, MutantsAreRejectedOrRoundTrip)
{
    // Corpus: a small scan's saved file, and the same file with the
    // meta line older builds wrote.
    ThresholdScanConfig cfg;
    cfg.distances = {3};
    cfg.physicalPs = {8e-3, 2e-2};
    cfg.mc.trials = 64;
    cfg.mc.seed = 5;
    cfg.mc.checkpointPath = tmpPath("fuzz_corpus.ckpt");
    removeFile(cfg.mc.checkpointPath);
    scanThreshold(EvaluationSetup{EmbeddingKind::Baseline2D,
                                  ExtractionSchedule::AllAtOnce},
                  cfg);
    std::vector<std::string> corpus{readFile(cfg.mc.checkpointPath)};
    removeFile(cfg.mc.checkpointPath);
    std::string meta = corpus[0];
    meta.insert(meta.find('\n', meta.find("\nconfig ") + 1) + 1,
                "meta compute=simd\n");
    corpus.push_back(meta);

    const std::string path = tmpPath("fuzz_mutant.ckpt");
    const char* const tokens[] = {"junk", "0", "trials=5", "end"};
    Rng rng(0xf022);
    int loaded = 0;
    for (int iter = 0; iter < 4000; ++iter) {
        const std::string& base = corpus[rng.nextBelow(corpus.size())];
        std::string mutant = base;
        bool appended = false;
        switch (rng.nextBelow(4)) {
        case 0: // byte flip
            mutant[rng.nextBelow(mutant.size())] ^=
                static_cast<char>(1 + rng.nextBelow(255));
            break;
        case 1: // truncation
            mutant.resize(rng.nextBelow(mutant.size()));
            break;
        case 2: { // splice: a prefix of one file, a suffix of another
            const std::string& other =
                corpus[rng.nextBelow(corpus.size())];
            mutant = base.substr(0, rng.nextBelow(base.size() + 1))
                   + other.substr(rng.nextBelow(other.size() + 1));
            break;
        }
        default: { // a token appended to a random line
            const auto lines = static_cast<uint64_t>(
                std::count(base.begin(), base.end(), '\n'));
            mutant = appendToLine(base, rng.nextBelow(lines),
                                  tokens[rng.nextBelow(4)]);
            appended = true;
        }
        }
        removeFile(path);
        writeFile(path, mutant);
        McCheckpoint c;
        const std::string err = c.load(path);
        // No line has an optional field, so a line with one more token
        // is never a file save() wrote.
        if (appended) {
            EXPECT_NE(err, "") << "loaded:\n" << mutant;
        }
        if (!err.empty()) {
            EXPECT_NE(err.find(path), std::string::npos) << err;
            continue;
        }
        ++loaded;
        ASSERT_EQ(c.save(), "") << mutant;
        McCheckpoint back;
        ASSERT_EQ(back.load(path), "") << mutant;
        EXPECT_EQ(back.summary(), c.summary());
        EXPECT_EQ(back.points(), c.points()) << mutant;
    }
    EXPECT_GT(loaded, 0);
    removeFile(path);
}

/** Progress snapshots of an uninterrupted run = every possible kill
 *  frontier (batches commit in trial order, so a kill leaves exactly
 *  one of these committed states on disk). */
std::vector<McProgress>
collectSnapshots(EmbeddingKind embedding, const GeneratorConfig& config,
                 McOptions options, BinomialEstimate& reference)
{
    std::vector<McProgress> snapshots;
    options.progress = [&](const McProgress& p) {
        snapshots.push_back(p);
    };
    reference = estimateLogicalErrorBasis(embedding, config, options);
    return snapshots;
}

void
expectResumeBitIdentity(const McOptions& baseOptions, uint64_t target)
{
    GeneratorConfig cfg = ckptConfig(3, 9e-3);
    McOptions options = baseOptions;
    options.targetFailures = target;

    BinomialEstimate reference;
    std::vector<McProgress> snapshots = collectSnapshots(
        EmbeddingKind::Baseline2D, cfg, options, reference);
    ASSERT_GT(snapshots.size(), 2u);
    EXPECT_GT(reference.successes, 0u);

    uint64_t pointKey =
        checkpointPointKey(EmbeddingKind::Baseline2D, cfg);
    std::string fingerprint = mcRunFingerprintSummary(options);
    // Tests run as parallel ctest processes: keep scratch paths unique.
    std::string path =
        tmpPath("resume_" + std::to_string(target) + ".ckpt");

    // Kill after every batch: for each committed frontier, materialize
    // the checkpoint a kill at that moment leaves behind, resume from
    // it, and demand counts bit-identical to the uninterrupted run.
    for (const McProgress& snap : snapshots) {
        if (snap.trialsDone >= reference.trials)
            continue; // the final commit: nothing left to resume
        removeFile(path);
        McCheckpoint state;
        ASSERT_EQ(state.open(path, fingerprint), "");
        state.update(pointKey,
                     CheckpointEntry{snap.trialsDone, snap.failures,
                                     false});
        ASSERT_EQ(state.save(), "");

        McOptions resumed = options;
        resumed.checkpointPath = path;
        BinomialEstimate est = estimateLogicalErrorBasis(
            EmbeddingKind::Baseline2D, cfg, resumed);
        EXPECT_EQ(est.successes, reference.successes)
            << "kill at trial " << snap.trialsDone;
        EXPECT_EQ(est.trials, reference.trials)
            << "kill at trial " << snap.trialsDone;

        // The file now records the finished point.
        McCheckpoint after;
        ASSERT_EQ(after.open(path, fingerprint), "");
        const CheckpointEntry* entry = after.find(pointKey);
        ASSERT_NE(entry, nullptr);
        EXPECT_TRUE(entry->done);
        EXPECT_EQ(entry->trialsDone, reference.trials);
        EXPECT_EQ(entry->failures, reference.successes);
    }
    removeFile(path);
}

TEST(CheckpointResume, BitIdenticalFullBudget)
{
    McOptions options;
    options.trials = 600;
    options.seed = 1234;
    options.batchSize = 64;
    expectResumeBitIdentity(options, 0);
}

TEST(CheckpointResume, BitIdenticalUnderEarlyStop)
{
    McOptions options;
    options.trials = 4000;
    options.seed = 4321;
    // Small batches so the early stop lands several committed batches
    // in: every one of those frontiers is a tested kill point.
    options.batchSize = 8;
    expectResumeBitIdentity(options, 12);
}

TEST(CheckpointResume, ResumeWithDifferentBatchSizeStillBitIdentical)
{
    // batchSize only controls commit granularity, so a checkpoint cut
    // at any frontier resumes bit-identically even when the resumed
    // process uses a different batch size -- but the fingerprint pins
    // batchSize (it changes the kill frontiers), so exercise the
    // engine path via an explicit shared fingerprint.
    GeneratorConfig cfg = ckptConfig(3, 9e-3);
    McOptions options;
    options.trials = 500;
    options.seed = 99;
    options.batchSize = 64;

    BinomialEstimate reference;
    std::vector<McProgress> snapshots = collectSnapshots(
        EmbeddingKind::Baseline2D, cfg, options, reference);
    ASSERT_GT(snapshots.size(), 1u);
    const McProgress& snap = snapshots[snapshots.size() / 2];
    ASSERT_LT(snap.trialsDone, reference.trials);

    std::string path = tmpPath("rebatch.ckpt");
    removeFile(path);
    McCheckpoint state;
    ASSERT_EQ(state.open(path, "shared-fingerprint"), "");
    state.update(checkpointPointKey(EmbeddingKind::Baseline2D, cfg),
                 CheckpointEntry{snap.trialsDone, snap.failures, false});
    ASSERT_EQ(state.save(), "");

    McOptions resumed = options;
    resumed.batchSize = 17;
    resumed.checkpointPath = path;
    resumed.checkpointFingerprint = "shared-fingerprint";
    BinomialEstimate est = estimateLogicalErrorBasis(
        EmbeddingKind::Baseline2D, cfg, resumed);
    EXPECT_EQ(est.successes, reference.successes);
    EXPECT_EQ(est.trials, reference.trials);
    removeFile(path);
}

TEST(CheckpointResume, OldFileWithMetaLineResumesAndDropsIt)
{
    // Older builds wrote `meta compute=<backend>` after the config
    // line. Such a file must still load and resume to the counts of an
    // uninterrupted run, and the file written back has no meta line.
    GeneratorConfig cfg = ckptConfig(3, 9e-3);
    McOptions options;
    options.trials = 600;
    options.seed = 2468;
    options.batchSize = 64;
    BinomialEstimate reference = estimateLogicalErrorBasis(
        EmbeddingKind::Baseline2D, cfg, options);
    EXPECT_GT(reference.successes, 0u);

    // Save mid-run: preempt at the third batch commit. One thread, so
    // no other batch is in flight to drain and the frontier is exact:
    // 600 trials split into 10 batches of 60.
    std::string path = tmpPath("meta_line.ckpt");
    removeFile(path);
    McOptions cut = options;
    cut.checkpointPath = path;
    cut.threads = 1;
    int commits = 0;
    cut.preempt = [&commits] { return ++commits == 3; };
    bool preempted = false;
    cut.preempted = &preempted;
    BinomialEstimate partial = estimateLogicalErrorBasis(
        EmbeddingKind::Baseline2D, cfg, cut);
    ASSERT_TRUE(preempted);
    ASSERT_EQ(partial.trials, 3 * 60u);

    std::string text = readFile(path);
    EXPECT_EQ(text.find("\nmeta "), std::string::npos);
    const size_t configLine = text.find("\nconfig ");
    ASSERT_NE(configLine, std::string::npos);
    text.insert(text.find('\n', configLine + 1) + 1,
                "meta compute=simd\n");
    writeFile(path, text);

    McOptions resumed = options;
    resumed.checkpointPath = path;
    BinomialEstimate est = estimateLogicalErrorBasis(
        EmbeddingKind::Baseline2D, cfg, resumed);
    EXPECT_EQ(est.trials, reference.trials);
    EXPECT_EQ(est.successes, reference.successes);
    EXPECT_EQ(readFile(path).find("\nmeta "), std::string::npos);
    removeFile(path);
}

/** The checkpoint entry of one point, read back from `path`. */
CheckpointEntry
savedEntry(const std::string& path, const McOptions& options,
           const GeneratorConfig& cfg)
{
    McCheckpoint state;
    EXPECT_EQ(state.open(path, mcRunFingerprintSummary(options)), "");
    const CheckpointEntry* entry =
        state.find(checkpointPointKey(EmbeddingKind::Baseline2D, cfg));
    EXPECT_NE(entry, nullptr);
    return entry ? *entry : CheckpointEntry{};
}

/**
 * Block until `shots` trials past `base` have been sampled (the
 * `sampler.shots` counter; metrics must be on), or a generous deadline
 * passes. A preempt hook that waits here holds the commit lock while
 * the other workers sample on, which puts batches in flight when the
 * hook fires without relying on timing.
 */
void
waitForSampledShots(uint64_t base, uint64_t shots)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    while (obs::snapshotMetrics().counter("sampler.shots") - base < shots
           && std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::microseconds(50));
}

TEST(PreemptDrain, PulledBatchesCommitAndResumeBitIdentically)
{
    // A preempted run commits every batch its workers pulled: nothing
    // sampled is thrown away, the frontier lands on a batch boundary
    // past the preempting commit, and resuming from it reproduces the
    // uninterrupted counts.
    const bool wasEnabled = obs::metricsEnabled();
    obs::setMetricsEnabled(true);
    GeneratorConfig cfg = ckptConfig(3, 6e-3);
    McOptions options;
    options.trials = 65536; // 1024 batches: far more than drain
    options.seed = 8642;
    options.threads = 4;
    options.batchSize = 64;
    options.decoder = DecoderKind::UnionFind;
    BinomialEstimate reference = estimateLogicalErrorBasis(
        EmbeddingKind::Baseline2D, cfg, options);
    EXPECT_GT(reference.successes, 0u);

    std::string path = tmpPath("drain.ckpt");
    removeFile(path);
    McOptions cut = options;
    cut.checkpointPath = path;
    constexpr uint64_t kPreemptCommit = 3;
    const obs::MetricsSnapshot before = obs::snapshotMetrics();
    uint64_t polls = 0;
    cut.preempt = [&] {
        if (++polls < kPreemptCommit)
            return false;
        // Fire only once a batch past the committed prefix has been
        // sampled: it is in flight or pending right now.
        waitForSampledShots(before.counter("sampler.shots"),
                            (kPreemptCommit + 1) * options.batchSize);
        return true;
    };
    bool preempted = false;
    cut.preempted = &preempted;
    BinomialEstimate partial = estimateLogicalErrorBasis(
        EmbeddingKind::Baseline2D, cfg, cut);
    const obs::MetricsSnapshot after = obs::snapshotMetrics();
    ASSERT_TRUE(preempted);
    EXPECT_EQ(polls, kPreemptCommit) << "polled again after it fired";

    const uint64_t sampled = after.counter("sampler.shots")
        - before.counter("sampler.shots");
    const uint64_t committed = after.counter("mc.trials_committed")
        - before.counter("mc.trials_committed");
    EXPECT_EQ(sampled, committed) << "sampled batches were discarded";
    EXPECT_EQ(committed, partial.trials);
    EXPECT_EQ(partial.trials % options.batchSize, 0u);
    EXPECT_GT(partial.trials, kPreemptCommit * options.batchSize)
        << "the batch sampled past the preempting commit must commit";
    EXPECT_LT(partial.trials, options.trials);
    const CheckpointEntry saved = savedEntry(path, cut, cfg);
    EXPECT_FALSE(saved.done);
    EXPECT_EQ(saved.trialsDone, partial.trials);
    EXPECT_EQ(saved.failures, partial.successes);

    McOptions resumed = options;
    resumed.checkpointPath = path;
    BinomialEstimate est = estimateLogicalErrorBasis(
        EmbeddingKind::Baseline2D, cfg, resumed);
    EXPECT_EQ(est.trials, reference.trials);
    EXPECT_EQ(est.successes, reference.successes);
    removeFile(path);
    obs::setMetricsEnabled(wasEnabled);
}

TEST(PreemptDrain, DrainedCommitsKeepSavingTheFrontier)
{
    // A drained commit's `progress` reaches the caller (the job service
    // streams it), so a kill before the suspend save must not resume
    // behind it: periodic saves go on while draining. Saving every
    // batch, each progress call finds the previous commit on disk.
    const bool wasEnabled = obs::metricsEnabled();
    obs::setMetricsEnabled(true);
    GeneratorConfig cfg = ckptConfig(3, 6e-3);
    std::string path = tmpPath("drain_saves.ckpt");
    removeFile(path);
    McOptions options;
    options.trials = 65536;
    options.seed = 8642;
    options.threads = 4;
    options.batchSize = 64;
    options.decoder = DecoderKind::UnionFind;
    options.checkpointPath = path;
    options.checkpointEveryTrials = options.batchSize;
    constexpr uint64_t kPreemptCommit = 3;
    const uint64_t shotsBefore =
        obs::snapshotMetrics().counter("sampler.shots");
    uint64_t polls = 0;
    options.preempt = [&] {
        if (++polls < kPreemptCommit)
            return false;
        // Two batches past the committed prefix are sampled, so the
        // drain commits at least two.
        waitForSampledShots(shotsBefore,
                            (kPreemptCommit + 2) * options.batchSize);
        return true;
    };
    uint64_t commits = 0;
    uint64_t lastProgress = 0;
    options.progress = [&](const McProgress& p) {
        if (commits > 0) {
            EXPECT_EQ(savedEntry(path, options, cfg).trialsDone,
                      lastProgress)
                << "commit " << commits + 1 << " found the checkpoint "
                << "behind the previous commit's progress";
        }
        ++commits;
        lastProgress = p.trialsDone;
    };
    bool preempted = false;
    options.preempted = &preempted;
    BinomialEstimate partial = estimateLogicalErrorBasis(
        EmbeddingKind::Baseline2D, cfg, options);
    ASSERT_TRUE(preempted);
    EXPECT_GE(commits, kPreemptCommit + 2);
    EXPECT_EQ(savedEntry(path, options, cfg).trialsDone, partial.trials);
    removeFile(path);
    obs::setMetricsEnabled(wasEnabled);
}

TEST(PreemptDrain, PreemptOnTheFinalCommitFinishesThePoint)
{
    // The hook fires on the commit that completes the budget: the
    // point is finished, not preempted, and its checkpoint says done.
    GeneratorConfig cfg = ckptConfig(3, 9e-3);
    McOptions options;
    options.trials = 3 * 64;
    options.seed = 97;
    options.threads = 1;
    options.batchSize = 64;
    BinomialEstimate reference = estimateLogicalErrorBasis(
        EmbeddingKind::Baseline2D, cfg, options);

    std::string path = tmpPath("final_commit.ckpt");
    removeFile(path);
    McOptions cut = options;
    cut.checkpointPath = path;
    int commits = 0;
    cut.preempt = [&commits] { return ++commits >= 3; };
    bool preempted = false;
    cut.preempted = &preempted;
    BinomialEstimate est = estimateLogicalErrorBasis(
        EmbeddingKind::Baseline2D, cfg, cut);
    EXPECT_FALSE(preempted);
    EXPECT_EQ(est.trials, reference.trials);
    EXPECT_EQ(est.successes, reference.successes);
    const CheckpointEntry saved = savedEntry(path, cut, cfg);
    EXPECT_TRUE(saved.done);
    EXPECT_EQ(saved.trialsDone, options.trials);
    removeFile(path);
}

TEST(PreemptDrain, DrainThatReachesTheBudgetFinishesThePoint)
{
    // Four workers, four batches: the hook fires at the second commit
    // but waits until the other workers have sampled the rest, so the
    // drain commits the whole budget and the point is done.
    const bool wasEnabled = obs::metricsEnabled();
    obs::setMetricsEnabled(true);
    GeneratorConfig cfg = ckptConfig(3, 9e-3);
    McOptions options;
    options.trials = 4 * 64;
    options.seed = 531;
    options.threads = 4;
    options.batchSize = 64;
    BinomialEstimate reference = estimateLogicalErrorBasis(
        EmbeddingKind::Baseline2D, cfg, options);

    std::string path = tmpPath("drain_done.ckpt");
    removeFile(path);
    McOptions cut = options;
    cut.checkpointPath = path;
    const uint64_t base =
        obs::snapshotMetrics().counter("sampler.shots");
    int polls = 0;
    cut.preempt = [&] {
        if (++polls < 2)
            return false;
        waitForSampledShots(base, options.trials);
        return true;
    };
    bool preempted = false;
    cut.preempted = &preempted;
    BinomialEstimate est = estimateLogicalErrorBasis(
        EmbeddingKind::Baseline2D, cfg, cut);
    EXPECT_FALSE(preempted);
    EXPECT_EQ(est.trials, reference.trials);
    EXPECT_EQ(est.successes, reference.successes);
    const CheckpointEntry saved = savedEntry(path, cut, cfg);
    EXPECT_TRUE(saved.done);
    EXPECT_EQ(saved.trialsDone, options.trials);
    removeFile(path);
    obs::setMetricsEnabled(wasEnabled);
}

TEST(TwoPointRun, PreemptWhileZDrainsSuspendsBeforeX)
{
    // estimateLogicalError runs its Z and X points in one run, building
    // X while Z's last batches decode -- but only once Z's hand-out
    // closed on its budget or early stop. Preempted mid-Z, the run
    // drains Z, saves its frontier not done, and never builds, samples
    // or writes X; resuming reproduces both uninterrupted counts.
    const bool wasEnabled = obs::metricsEnabled();
    obs::setMetricsEnabled(true);
    GeneratorConfig cfg = ckptConfig(3, 6e-3);
    McOptions options;
    options.trials = 8192; // 128 batches per point: far more than drain
    options.seed = 1357;
    options.threads = 4;
    options.batchSize = 64;
    options.decoder = DecoderKind::UnionFind;
    const LogicalErrorPoint reference =
        estimateLogicalError(EmbeddingKind::Baseline2D, cfg, options);
    EXPECT_GT(reference.basisZ.successes, 0u);
    EXPECT_GT(reference.basisX.successes, 0u);

    std::string path = tmpPath("two_point_preempt.ckpt");
    removeFile(path);
    McOptions cut = options;
    cut.checkpointPath = path;
    constexpr uint64_t kPreemptCommit = 3;
    auto generated = [] {
        const obs::MetricsSnapshot snap = obs::snapshotMetrics();
        const obs::HistogramSnapshot* h = snap.histogram("point.generate");
        return h ? h->count : 0;
    };
    const uint64_t generatedBefore = generated();
    const uint64_t shotsBefore =
        obs::snapshotMetrics().counter("sampler.shots");
    uint64_t polls = 0;
    cut.preempt = [&] {
        if (++polls < kPreemptCommit)
            return false;
        // Batches past the committed prefix are sampled: Z drains.
        waitForSampledShots(shotsBefore,
                            (kPreemptCommit + 2) * options.batchSize);
        return true;
    };
    bool preempted = false;
    cut.preempted = &preempted;
    const LogicalErrorPoint partial =
        estimateLogicalError(EmbeddingKind::Baseline2D, cfg, cut);
    ASSERT_TRUE(preempted);
    EXPECT_EQ(polls, kPreemptCommit) << "polled again after it fired";
    EXPECT_GT(partial.basisZ.trials, kPreemptCommit * options.batchSize);
    EXPECT_LT(partial.basisZ.trials, options.trials);
    EXPECT_EQ(partial.basisX.trials, 0u);
    EXPECT_EQ(generated() - generatedBefore, 1u)
        << "the X point was built after Z was preempted";

    GeneratorConfig cz = cfg;
    cz.memoryBasis = CheckBasis::Z;
    GeneratorConfig cx = cfg;
    cx.memoryBasis = CheckBasis::X;
    McCheckpoint state;
    ASSERT_EQ(state.open(path, mcRunFingerprintSummary(cut)), "");
    const CheckpointEntry* z =
        state.find(checkpointPointKey(EmbeddingKind::Baseline2D, cz));
    ASSERT_NE(z, nullptr);
    EXPECT_FALSE(z->done);
    EXPECT_EQ(z->trialsDone, partial.basisZ.trials);
    EXPECT_EQ(z->failures, partial.basisZ.successes);
    EXPECT_EQ(state.find(checkpointPointKey(EmbeddingKind::Baseline2D, cx)),
              nullptr)
        << "the X point was written";

    McOptions resumed = options;
    resumed.checkpointPath = path;
    const LogicalErrorPoint est =
        estimateLogicalError(EmbeddingKind::Baseline2D, cfg, resumed);
    EXPECT_EQ(est.basisZ.trials, reference.basisZ.trials);
    EXPECT_EQ(est.basisZ.successes, reference.basisZ.successes);
    EXPECT_EQ(est.basisX.trials, reference.basisX.trials);
    EXPECT_EQ(est.basisX.successes, reference.basisX.successes);
    removeFile(path);
    obs::setMetricsEnabled(wasEnabled);
}

TEST(CheckpointResume, DonePointSkipsSampling)
{
    GeneratorConfig cfg = ckptConfig(3, 5e-3);
    McOptions options;
    options.trials = 1000000; // would take minutes if actually sampled
    options.seed = 7;

    std::string path = tmpPath("done.ckpt");
    removeFile(path);
    McCheckpoint state;
    ASSERT_EQ(state.open(path, mcRunFingerprintSummary(options)), "");
    // Fabricated counts a real run could never produce under this
    // budget: getting them back proves no sampling happened.
    state.update(checkpointPointKey(EmbeddingKind::Baseline2D, cfg),
                 CheckpointEntry{123, 45, true});
    ASSERT_EQ(state.save(), "");

    options.checkpointPath = path;
    BinomialEstimate est = estimateLogicalErrorBasis(
        EmbeddingKind::Baseline2D, cfg, options);
    EXPECT_EQ(est.trials, 123u);
    EXPECT_EQ(est.successes, 45u);
    removeFile(path);
}

TEST(CheckpointResume, ProgressIsGlobalAndMonotoneAcrossResume)
{
    GeneratorConfig cfg = ckptConfig(3, 9e-3);
    McOptions options;
    options.trials = 400;
    options.seed = 11;
    options.batchSize = 32;

    BinomialEstimate reference;
    std::vector<McProgress> snapshots = collectSnapshots(
        EmbeddingKind::Baseline2D, cfg, options, reference);
    ASSERT_GT(snapshots.size(), 3u);
    const McProgress& snap = snapshots[1];

    std::string path = tmpPath("progress.ckpt");
    removeFile(path);
    McCheckpoint state;
    ASSERT_EQ(state.open(path, mcRunFingerprintSummary(options)), "");
    state.update(checkpointPointKey(EmbeddingKind::Baseline2D, cfg),
                 CheckpointEntry{snap.trialsDone, snap.failures, false});
    ASSERT_EQ(state.save(), "");

    // The resumed session must report the full-run budget and global
    // committed counts, continuing monotonically past the frontier --
    // never restarting a per-session count at zero.
    McOptions resumed = options;
    resumed.checkpointPath = path;
    uint64_t lastTrials = snap.trialsDone;
    uint64_t lastFailures = snap.failures;
    resumed.progress = [&](const McProgress& p) {
        EXPECT_EQ(p.totalTrials, resumed.trials);
        EXPECT_GT(p.trialsDone, snap.trialsDone);
        EXPECT_GE(p.trialsDone, lastTrials);
        EXPECT_GE(p.failures, lastFailures);
        lastTrials = p.trialsDone;
        lastFailures = p.failures;
    };
    BinomialEstimate est = estimateLogicalErrorBasis(
        EmbeddingKind::Baseline2D, cfg, resumed);
    EXPECT_EQ(est.successes, reference.successes);
    EXPECT_EQ(lastTrials, reference.trials);
    removeFile(path);
}

TEST(CheckpointResume, EngineRejectsMismatchedFingerprint)
{
    GeneratorConfig cfg = ckptConfig(3, 5e-3);
    McOptions options;
    options.trials = 100;
    options.seed = 5;

    std::string path = tmpPath("engine_mismatch.ckpt");
    removeFile(path);
    McCheckpoint state;
    ASSERT_EQ(state.open(path, "some other run"), "");
    ASSERT_EQ(state.save(), "");

    options.checkpointPath = path;
    EXPECT_EXIT(
        estimateLogicalErrorBasis(EmbeddingKind::Baseline2D, cfg,
                                  options),
        testing::ExitedWithCode(1), "fingerprint mismatch");
    removeFile(path);
}

TEST(CheckpointResume, ThresholdScanSkipsCompletedPoints)
{
    EvaluationSetup setup{EmbeddingKind::Baseline2D,
                          ExtractionSchedule::AllAtOnce};
    ThresholdScanConfig cfg;
    cfg.distances = {3, 5};
    cfg.physicalPs = {8e-3, 2e-2};
    cfg.mc.trials = 150;
    cfg.mc.seed = 21;
    cfg.mc.checkpointPath = tmpPath("scan.ckpt");
    removeFile(cfg.mc.checkpointPath);

    ThresholdResult first = scanThreshold(setup, cfg);

    // All 8 (d, p, basis) points are recorded; the second scan is
    // served entirely from the checkpoint and must reproduce the
    // counts exactly.
    ThresholdResult second = scanThreshold(setup, cfg);
    ASSERT_EQ(second.curves.size(), first.curves.size());
    for (size_t i = 0; i < first.curves.size(); ++i) {
        for (size_t j = 0; j < first.curves[i].points.size(); ++j) {
            const LogicalErrorPoint& a = first.curves[i].points[j];
            const LogicalErrorPoint& b = second.curves[i].points[j];
            EXPECT_EQ(a.basisZ.successes, b.basisZ.successes);
            EXPECT_EQ(a.basisZ.trials, b.basisZ.trials);
            EXPECT_EQ(a.basisX.successes, b.basisX.successes);
            EXPECT_EQ(a.basisX.trials, b.basisX.trials);
        }
    }

    // And an un-checkpointed run agrees too (the checkpoint changed
    // nothing about the sampled counts).
    ThresholdScanConfig plain = cfg;
    plain.mc.checkpointPath.clear();
    ThresholdResult third = scanThreshold(setup, plain);
    EXPECT_EQ(third.curves[0].points[0].basisZ.successes,
              first.curves[0].points[0].basisZ.successes);
    removeFile(cfg.mc.checkpointPath);
}

TEST(CheckpointResume, SensitivityPanelReproducesFromCheckpoint)
{
    GeneratorConfig base = ckptConfig(3, 5e-3);
    SensitivitySpec spec;
    spec.name = "test panel";
    spec.axisLabel = "x";
    spec.values = {1e-3, 8e-3};
    spec.apply = [](GeneratorConfig& c, double x) { c.noise.p2 = x; };

    McOptions mc;
    mc.trials = 120;
    mc.seed = 33;
    mc.checkpointPath = tmpPath("panel.ckpt");
    removeFile(mc.checkpointPath);

    std::vector<int> distances{3};
    SensitivityResult first =
        runSensitivity(EmbeddingKind::Compact, base, spec, distances, mc);
    SensitivityResult second =
        runSensitivity(EmbeddingKind::Compact, base, spec, distances, mc);
    for (size_t i = 0; i < first.points.size(); ++i) {
        EXPECT_EQ(first.points[i][0].basisZ.successes,
                  second.points[i][0].basisZ.successes);
        EXPECT_EQ(first.points[i][0].basisX.successes,
                  second.points[i][0].basisX.successes);
    }
    removeFile(mc.checkpointPath);
}

} // namespace
} // namespace vlq
