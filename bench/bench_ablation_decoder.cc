/**
 * @file
 * Ablation A1: decoder quality. The paper uses "maximum likelihood
 * perfect matching"; this ablation compares our exact MWPM
 * against the greedy matcher and the union-find decoder on the same
 * decoding graphs, on the baseline and Compact-Interleaved setups.
 * Decode speed is measured per workload by pipebench
 * (decoder.decode_ns_per_shot, see pipebench/README.md).
 *
 * Knobs: VLQ_TRIALS (default 400), VLQ_SEED.
 * Flags: --csv <path>  also emit the table as machine-readable CSV
 *        (record,setup,d,p,decoder,value rows; the CI bench-regression
 *        job diffs them against bench/reference/ablation_decoder.csv).
 *        --metrics-json <path> / --trace-json <path>  observability
 *        outputs (see src/obs/obs.h); also via VLQ_METRICS_JSON and
 *        VLQ_TRACE.
 */
#include <iostream>
#include <string>
#include <vector>

#include "decoder/decoder_factory.h"
#include "mc/monte_carlo.h"
#include "obs/obs.h"
#include "util/csv.h"
#include "util/env.h"
#include "util/table.h"

using namespace vlq;

namespace {

const std::vector<DecoderKind> kKinds{
    DecoderKind::Mwpm, DecoderKind::Greedy, DecoderKind::UnionFind};

void
logicalErrorTable(CsvWriter* csv)
{
    McOptions base;
    base.trials = envU64("VLQ_TRIALS", 400);
    base.seed = envU64("VLQ_SEED", 0x5eed);

    std::cout << "=== Logical error rate by decoder backend ===\n\n";
    TablePrinter t({"Setup", "d", "p", "MWPM rate", "Greedy rate",
                    "UnionFind rate"});
    struct Case
    {
        EmbeddingKind emb;
        ExtractionSchedule sched;
        const char* name;
    };
    std::vector<Case> cases{
        {EmbeddingKind::Baseline2D, ExtractionSchedule::AllAtOnce,
         "Baseline"},
        {EmbeddingKind::Compact, ExtractionSchedule::Interleaved,
         "Compact, Interleaved"},
    };
    for (const auto& cs : cases) {
        for (int d : {3, 5}) {
            for (double p : {5e-3, 1e-2}) {
                GeneratorConfig cfg;
                cfg.distance = d;
                cfg.cavityDepth = 10;
                cfg.schedule = cs.sched;
                cfg.noise = NoiseModel::atPhysicalRate(
                    p, HardwareParams::transmonsWithMemory());
                std::vector<std::string> row{
                    cs.name, std::to_string(d), TablePrinter::sci(p, 1)};
                for (DecoderKind kind : kKinds) {
                    McOptions opts = base;
                    opts.decoder = kind;
                    LogicalErrorPoint pt =
                        estimateLogicalError(cs.emb, cfg, opts);
                    row.push_back(
                        TablePrinter::sci(pt.combinedRate(), 2));
                    if (csv)
                        csv->addRow({"rate", cs.name,
                                     std::to_string(d),
                                     TablePrinter::sci(p, 1),
                                     decoderKindName(kind),
                                     std::to_string(pt.combinedRate())});
                }
                t.addRow(row);
            }
        }
    }
    t.print(std::cout);
    std::cout <<
        "\nExpected: union-find tracks MWPM closely (same decoding\n"
        "graph, near-optimal cluster-local corrections) while greedy\n"
        "degrades near threshold -- decoder quality is part of the\n"
        "code's performance (paper Sec. V).\n";
}

} // namespace

int
main(int argc, char** argv)
{
    obs::initFromEnv();
    std::string csvPath;
    std::string metricsJsonPath;
    std::string traceJsonPath;
    if (!parseFlagArgs(argc, argv,
                       {{"--csv", &csvPath},
                        {"--metrics-json", &metricsJsonPath},
                        {"--trace-json", &traceJsonPath}}))
        return 1;
    obs::applyCliPaths(metricsJsonPath, traceJsonPath);
    CsvWriter csv({"record", "setup", "d", "p", "decoder", "value"});
    CsvWriter* csvp = csvPath.empty() ? nullptr : &csv;

    logicalErrorTable(csvp);

    if (csvp && !csv.writeFile(csvPath)) {
        std::cerr << "failed to write " << csvPath << "\n";
        return 1;
    }
    std::string obsErr;
    if (!obs::finalize(&obsErr)) {
        std::cerr << "error: " << obsErr << "\n";
        return 1;
    }
    return 0;
}
