/**
 * @file
 * Microbenchmarks (google-benchmark) for the simulation hot paths:
 * DEM construction, fault sampling, decoding graph construction, and
 * MWPM decoding at realistic event densities.
 */
#include <benchmark/benchmark.h>

#include <span>
#include <vector>

#include "core/generator_common.h"
#include "decoder/mwpm_decoder.h"
#include "decoder/union_find.h"
#include "dem/detector_model.h"
#include "dem/sampler.h"
#include "dem/shot_batch.h"
#include "util/rng.h"

using namespace vlq;

namespace {

GeneratorConfig
benchConfig(int d, double p)
{
    GeneratorConfig cfg;
    cfg.distance = d;
    cfg.cavityDepth = 10;
    cfg.noise = NoiseModel::atPhysicalRate(
        p, HardwareParams::transmonsWithMemory());
    return cfg;
}

void
BM_GenerateCompact(benchmark::State& state)
{
    GeneratorConfig cfg = benchConfig(static_cast<int>(state.range(0)),
                                      2e-3);
    for (auto _ : state) {
        GeneratedCircuit gen = generateCompactMemory(cfg);
        benchmark::DoNotOptimize(gen.circuit.ops().size());
    }
}
BENCHMARK(BM_GenerateCompact)->Arg(3)->Arg(5);

void
BM_BuildDem(benchmark::State& state)
{
    GeneratorConfig cfg = benchConfig(static_cast<int>(state.range(0)),
                                      2e-3);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    for (auto _ : state) {
        DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
        benchmark::DoNotOptimize(dem.channels().size());
    }
}
BENCHMARK(BM_BuildDem)->Arg(3)->Arg(5)->Arg(7);

void
BM_Sample(benchmark::State& state)
{
    GeneratorConfig cfg = benchConfig(static_cast<int>(state.range(0)),
                                      8e-3);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    FaultSampler sampler(dem);
    Rng rng(1);
    BitVec det(dem.numDetectors());
    uint32_t obs = 0;
    for (auto _ : state) {
        sampler.sampleInto(rng, det, obs);
        benchmark::DoNotOptimize(obs);
    }
}
BENCHMARK(BM_Sample)->Arg(3)->Arg(5)->Arg(7);

void
BM_DecodeMwpm(benchmark::State& state)
{
    GeneratorConfig cfg = benchConfig(static_cast<int>(state.range(0)),
                                      8e-3);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    FaultSampler sampler(dem);
    MwpmDecoder decoder(dem);
    Rng rng(1);
    BitVec det(dem.numDetectors());
    uint32_t obs = 0;
    for (auto _ : state) {
        sampler.sampleInto(rng, det, obs);
        uint32_t predicted = decoder.decode(det);
        benchmark::DoNotOptimize(predicted);
    }
}
BENCHMARK(BM_DecodeMwpm)->Arg(3)->Arg(5)->Arg(7);

/**
 * Pinned batched union-find decode: the same pre-sampled 256-shot
 * batch is decoded every iteration (fixed seed, sampler outside the
 * loop), so the number isolates the decode path the Monte-Carlo engine
 * spends its time in. This is the loop the observability layer's
 * <1%-overhead-when-disabled budget is measured against (test_obs).
 */
void
BM_DecodeBatchUf(benchmark::State& state)
{
    GeneratorConfig cfg = benchConfig(static_cast<int>(state.range(0)),
                                      8e-3);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    FaultSampler sampler(dem);
    UnionFindDecoder decoder(dem);
    const uint32_t shots = 256;
    ShotBatch batch;
    batch.reset(dem.numDetectors(), dem.numObservables(), shots, 0);
    sampler.sampleBatchInto(Rng(1), batch);
    std::vector<uint32_t> predictions(shots);
    for (auto _ : state) {
        decoder.decodeBatch(batch, std::span<uint32_t>(predictions));
        benchmark::DoNotOptimize(predictions[0]);
    }
    state.SetItemsProcessed(static_cast<int64_t>(state.iterations())
                            * shots);
}
BENCHMARK(BM_DecodeBatchUf)->Arg(3)->Arg(5)->Arg(7);

void
BM_BuildMatchingGraph(benchmark::State& state)
{
    GeneratorConfig cfg = benchConfig(static_cast<int>(state.range(0)),
                                      2e-3);
    GeneratedCircuit gen = generateBaselineMemory(cfg);
    DetectorErrorModel dem = DetectorErrorModel::build(gen.circuit);
    for (auto _ : state) {
        MatchingGraph g = MatchingGraph::build(dem);
        benchmark::DoNotOptimize(g.numEdges());
    }
}
BENCHMARK(BM_BuildMatchingGraph)->Arg(3)->Arg(5);

} // namespace

BENCHMARK_MAIN();
