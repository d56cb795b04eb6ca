#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/generator_common.h"
#include "core/generator_registry.h"
#include "decoder/decoder_factory.h"
#include "decoder/union_find.h"
#include "dem/detector_model.h"
#include "dem/sampler.h"
#include "dem/shot_batch.h"
#include "mc/memory_experiment.h"
#include "mc/monte_carlo.h"
#include "pauli/bitvec.h"
#include "util/rng.h"

namespace vlq {
namespace {

/**
 * Decoders are pure functions of their shot (docs/ARCHITECTURE.md
 * invariant 9): no prediction may depend on what the decoder object, or
 * the thread's scratch, decoded before. Each configuration below is
 * decoded shot by shot in several orders on one decoder object, and
 * every order must reproduce that object's decodeBatch.
 */
struct PurityCase
{
    const char* label;
    int setup; // paperSetups() index
    int distance;
    double p;
    int noise; // 0 flat, 1 heralded erasure (fraction 1.0), 2 Z-biased
};

constexpr PurityCase kCases[] = {
    {"plain d=5", 0, 5, 5e-3, 0},
    {"Z-biased d=5", 0, 5, 5e-3, 2},
    {"heralded erasure d=5", 0, 5, 5e-3, 1},
    {"setup 4 d=7 above threshold", 4, 7, 1e-2, 0},
};

GeneratorConfig
configFor(const PurityCase& c)
{
    GeneratorConfig cfg;
    cfg.distance = c.distance;
    cfg.schedule = paperSetups()[static_cast<size_t>(c.setup)].schedule;
    cfg.noise = NoiseModel::atPhysicalRate(
        c.p, HardwareParams::transmonsWithMemory());
    if (c.noise == 1)
        cfg.noise.erasure.fraction = 1.0;
    else if (c.noise == 2)
        cfg.noise.bias.rZ = 10.0;
    return cfg;
}

/** One sampled batch with its shots extracted for per-shot decoding. */
struct Sampled
{
    ShotBatch batch;
    std::vector<BitVec> detectors;
    std::vector<BitVec> erasures;
    std::vector<uint32_t> reference; // the decoder's decodeBatch
};

void
sample(const DetectorErrorModel& dem, uint32_t shots, uint64_t seed,
       Sampled& out)
{
    out.batch.reset(dem.numDetectors(), dem.numObservables(), shots, 0,
                    dem.numErasureSites());
    FaultSampler(dem).sampleBatchInto(Rng(seed), out.batch);
    out.detectors.assign(shots, BitVec(dem.numDetectors()));
    out.erasures.assign(shots, BitVec(dem.numErasureSites()));
    for (uint32_t s = 0; s < shots; ++s) {
        out.batch.extractShot(s, out.detectors[s]);
        for (uint32_t site = 0; site < dem.numErasureSites(); ++site)
            out.erasures[s].set(site, out.batch.erased(s, site));
    }
}

/**
 * One shot through the per-shot API that matches decodeBatch: union-find
 * reads the heralds, the matching decoders ignore them.
 */
uint32_t
decodeOne(const Decoder& dec, const Sampled& in, uint32_t s)
{
    if (const auto* uf = dynamic_cast<const UnionFindDecoder*>(&dec))
        return uf->decodeWithErasures(in.detectors[s], in.erasures[s]);
    return dec.decode(in.detectors[s]);
}

TEST(DecoderPurity, EveryDecodeOrderReproducesTheBatch)
{
    constexpr uint32_t kShots = 1024;
    const std::vector<EvaluationSetup> setups = paperSetups();
    for (const PurityCase& c : kCases) {
        const GeneratorConfig cfg = configFor(c);
        const DetectorErrorModel dem = DetectorErrorModel::build(
            generateMemoryCircuit(
                setups[static_cast<size_t>(c.setup)].embedding, cfg)
                .circuit);
        for (const DecoderRegistration& reg : decoderRegistry()) {
            const std::string label =
                std::string(c.label) + " " + reg.name;
            const std::unique_ptr<Decoder> dec = makeDecoder(reg.kind, dem);
            Sampled first;
            Sampled second;
            sample(dem, kShots, 0x9e3779b9, first);
            sample(dem, kShots, 0x7f4a7c15, second);
            for (Sampled* in : {&first, &second}) {
                in->reference.assign(kShots, 0);
                dec->decodeBatch(in->batch,
                                 std::span<uint32_t>(in->reference));
            }
            int forward = 0;
            int reverse = 0;
            int interleaved = 0;
            for (uint32_t s = 0; s < kShots; ++s)
                forward += decodeOne(*dec, first, s) != first.reference[s];
            for (uint32_t s = kShots; s-- > 0;)
                reverse += decodeOne(*dec, first, s) != first.reference[s];
            for (uint32_t s = 0; s < kShots; ++s) {
                interleaved +=
                    decodeOne(*dec, first, s) != first.reference[s];
                interleaved +=
                    decodeOne(*dec, second, s) != second.reference[s];
            }
            EXPECT_EQ(forward, 0) << label << ": forward";
            EXPECT_EQ(reverse, 0) << label << ": reverse";
            EXPECT_EQ(interleaved, 0) << label << ": interleaved";
        }
    }
}

TEST(DecoderPurity, CountsDoNotDependOnThreadCount)
{
    const std::vector<EvaluationSetup> setups = paperSetups();
    for (const PurityCase& c : kCases) {
        const GeneratorConfig cfg = configFor(c);
        for (const DecoderRegistration& reg : decoderRegistry()) {
            McOptions opts;
            opts.trials = 2048;
            opts.seed = 0x5eed;
            opts.decoder = reg.kind;
            opts.threads = 1;
            const BinomialEstimate one = estimateLogicalErrorBasis(
                setups[static_cast<size_t>(c.setup)].embedding, cfg, opts);
            opts.threads = 4;
            const BinomialEstimate four = estimateLogicalErrorBasis(
                setups[static_cast<size_t>(c.setup)].embedding, cfg, opts);
            EXPECT_EQ(one.trials, four.trials) << c.label << " " << reg.name;
            EXPECT_EQ(one.successes, four.successes)
                << c.label << " " << reg.name;
        }
    }
}

} // namespace
} // namespace vlq
