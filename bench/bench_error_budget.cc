/**
 * @file
 * Ablation A3/B: the noise-mass budget of one correction block per
 * setup, split by physical source. This explains the threshold
 * ordering of Fig. 11 mechanistically: Interleaved schedules trade
 * cavity idle for load/store mass, Compact adds transmon-mode gates,
 * and the baseline has neither.
 */
#include <iostream>
#include <limits>

#include "core/generator_common.h"
#include "mc/memory_experiment.h"
#include "util/env.h"
#include "util/table.h"

using namespace vlq;

int
main(int argc, char** argv)
{
    if (!requireNoArgs(argc, argv))
        return 1;
    const auto distance = envBounded("VLQ_DISTANCE", 5, 3,
                                     std::numeric_limits<int>::max());
    if (!distance)
        return 1;
    const int d = static_cast<int>(*distance);
    double p = envDouble("VLQ_P", 2e-3);

    std::cout << "=== Noise budget per memory-Z block (d = " << d
              << ", p = " << p << ", k = 10) ===\n\n";

    TablePrinter t({"Setup", "gate TT", "gate TM", "load/store",
                    "measure", "idle transmon", "idle cavity",
                    "total"});
    for (const EvaluationSetup& setup : paperSetups()) {
        GeneratorConfig cfg;
        cfg.distance = d;
        cfg.cavityDepth = 10;
        cfg.schedule = setup.schedule;
        cfg.noise = NoiseModel::atPhysicalRate(
            p, HardwareParams::transmonsWithMemory(), false);
        GeneratedCircuit gen =
            generateMemoryCircuit(setup.embedding, cfg);
        const NoiseBudget& b = gen.budget;
        t.addRow({setup.name(), TablePrinter::num(b.gateTT, 3),
                  TablePrinter::num(b.gateTM, 3),
                  TablePrinter::num(b.loadStore, 3),
                  TablePrinter::num(b.measurement, 3),
                  TablePrinter::num(b.idleTransmon, 3),
                  TablePrinter::num(b.idleCavity, 3),
                  TablePrinter::num(b.total(), 3)});
    }
    t.print(std::cout);

    std::cout << "\nReading: thresholds in Fig. 11 order inversely with"
                 " these totals; the Interleaved columns show the\n"
                 "paper's load/store tax, and the cavity-idle column"
                 " shows the paging gap (BlockOnce model).\n";

    std::cout << "\n=== Same budgets under the strict per-round gap"
                 " accounting (VLQ_GAP_PER_ROUND ablation) ===\n\n";
    TablePrinter s({"Setup", "idle cavity (BlockOnce)",
                    "idle cavity (PerRound)"});
    for (const EvaluationSetup& setup : paperSetups()) {
        if (!setup.virtualized())
            continue; // no cavities, no paging gap to account
        GeneratorConfig cfg;
        cfg.distance = d;
        cfg.cavityDepth = 10;
        cfg.schedule = setup.schedule;
        cfg.noise = NoiseModel::atPhysicalRate(
            p, HardwareParams::transmonsWithMemory(), false);
        cfg.gapModel = PagingGapModel::BlockOnce;
        double blockOnce =
            generateMemoryCircuit(setup.embedding, cfg).budget.idleCavity;
        cfg.gapModel = PagingGapModel::PerRound;
        double perRound =
            generateMemoryCircuit(setup.embedding, cfg).budget.idleCavity;
        s.addRow({setup.name(), TablePrinter::num(blockOnce, 3),
                  TablePrinter::num(perRound, 3)});
    }
    s.print(std::cout);
    return 0;
}
