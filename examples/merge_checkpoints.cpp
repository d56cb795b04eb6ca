/**
 * @file
 * merge_checkpoints: merge split-seed checkpoint shards of one scan
 * (same knobs, different VLQ_SEED) into one reporting checkpoint, via
 * mergeCheckpoints (src/mc/checkpoint.h), and print each point.
 *
 * Usage: merge_checkpoints --out <merged.ckpt> <shard.ckpt>...
 *
 * A rejected merge prints why, exits 1 and writes nothing. Nearby
 * seeds still share most trials (README "Shard merging").
 */
#include <cstdio>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "mc/checkpoint.h"

using namespace vlq;

namespace {

int
usage(const char* argv0, const std::string& problem)
{
    std::cerr << "error: " << problem << "\n"
              << "usage: " << argv0
              << " --out <merged.ckpt> <shard.ckpt>...\n";
    return 1;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string out;
    std::vector<std::string> shards;
    for (int i = 1; i < argc; ++i) {
        std::string_view arg(argv[i]);
        if (arg == "--out") {
            if (i + 1 >= argc)
                return usage(argv[0], "--out needs a value");
            out = argv[++i];
        } else if (arg.size() >= 2 && arg.substr(0, 2) == "--") {
            return usage(argv[0], "unknown flag '" + std::string(arg)
                         + "'");
        } else {
            shards.emplace_back(arg);
        }
    }
    if (out.empty())
        return usage(argv[0], "--out is required");
    if (shards.empty())
        return usage(argv[0], "no shard files given");

    std::string err = mergeCheckpoints(shards, out);
    McCheckpoint merged;
    if (err.empty())
        err = merged.load(out);
    if (!err.empty()) {
        std::cerr << "error: " << err << "\n";
        return 1;
    }

    std::printf("merged %zu shard(s), %zu point(s) -> %s\n", shards.size(),
                merged.numPoints(), out.c_str());
    std::printf("%-16s  %12s  %10s  rate\n", "point key", "trials",
                "failures");
    for (const auto& [key, entry] : merged.points()) {
        const double rate = entry.trialsDone
            ? static_cast<double>(entry.failures)
                  / static_cast<double>(entry.trialsDone)
            : 0.0;
        std::printf("%s  %12llu  %10llu  %.3e%s\n", hex16(key).c_str(),
                    static_cast<unsigned long long>(entry.trialsDone),
                    static_cast<unsigned long long>(entry.failures), rate,
                    entry.done ? "" : "  (incomplete)");
    }
    return 0;
}
