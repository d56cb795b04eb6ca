#include "mc/checkpoint.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <vector>

#include "core/generator_registry.h"
#include "obs/obs.h"
#include "decoder/decoder_factory.h"

namespace vlq {

namespace {

constexpr int kFormatVersion = 1;
constexpr const char* kMagic = "vlq-mc-checkpoint";

/** Strict full-string parse of an unsigned decimal or hex token. */
bool
parseU64Token(std::string_view text, int base, uint64_t& out)
{
    if (text.empty() || text.front() == '-' || text.front() == '+')
        return false;
    std::string buf(text);
    errno = 0;
    char* end = nullptr;
    unsigned long long parsed = std::strtoull(buf.c_str(), &end, base);
    // The whole token, so an embedded NUL is junk, not its end.
    if (end != buf.c_str() + buf.size() || errno == ERANGE)
        return false;
    out = static_cast<uint64_t>(parsed);
    return true;
}

/** The whitespace-separated tokens of one line. */
std::vector<std::string>
tokensOf(const std::string& line)
{
    std::istringstream is(line);
    std::vector<std::string> tokens;
    for (std::string token; is >> token;)
        tokens.push_back(token);
    return tokens;
}

/** "key=value" field of a point line, with a strict numeric value. */
bool
parseField(std::string_view token, std::string_view key, uint64_t& out)
{
    if (token.size() <= key.size() + 1 ||
        token.substr(0, key.size()) != key || token[key.size()] != '=')
        return false;
    return parseU64Token(token.substr(key.size() + 1), 10, out);
}

} // namespace

std::string
hex16(uint64_t value)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, value);
    return std::string(buf);
}

uint64_t
fnv1a64(std::string_view text)
{
    uint64_t hash = 0xcbf29ce484222325ULL;
    for (char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

std::string
canonicalDouble(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    return std::string(buf);
}

uint64_t
checkpointPointKey(EmbeddingKind embedding, const GeneratorConfig& config)
{
    std::ostringstream os;
    const NoiseModel& n = config.noise;
    const HardwareParams& hw = n.hw;
    os << "embedding=" << embeddingKindName(embedding)
       << " basis=" << (config.memoryBasis == CheckBasis::X ? 'X' : 'Z')
       << " d=" << config.distance << " dx=" << config.distanceX
       << " dz=" << config.distanceZ << " rounds=" << config.rounds
       << " k=" << config.cavityDepth << " schedule="
       << (config.schedule == ExtractionSchedule::Interleaved
               ? "interleaved" : "aao")
       << " gap="
       << (config.gapModel == PagingGapModel::PerRound ? "per-round"
                                                       : "block-once")
       << " p2=" << canonicalDouble(n.p2) << " pTm=" << canonicalDouble(n.pTm)
       << " pLS=" << canonicalDouble(n.pLoadStore)
       << " p1=" << canonicalDouble(n.p1)
       << " pMeas=" << canonicalDouble(n.pMeas)
       << " pReset=" << canonicalDouble(n.pReset)
       << " idleScale=" << canonicalDouble(n.idleScale)
       << " t1T=" << canonicalDouble(hw.t1Transmon)
       << " t1C=" << canonicalDouble(hw.t1Cavity)
       << " tG1=" << canonicalDouble(hw.tGate1)
       << " tG2=" << canonicalDouble(hw.tGate2)
       << " tTm=" << canonicalDouble(hw.tGateTm)
       << " tLS=" << canonicalDouble(hw.tLoadStore)
       << " tM=" << canonicalDouble(hw.tMeasure)
       << " tR=" << canonicalDouble(hw.tReset);
    // Composite noise sources change the generated circuit, so they
    // must change the key. Appended only when some source is active:
    // uniform configs keep their pre-composite keys, so existing
    // checkpoint files keep resuming.
    const CompositeNoiseModel& cn = config.noise;
    if (!cn.isUniform()) {
        os << " biasX=" << canonicalDouble(cn.bias.rX)
           << " biasY=" << canonicalDouble(cn.bias.rY)
           << " biasZ=" << canonicalDouble(cn.bias.rZ)
           << " p01=" << canonicalDouble(cn.readout.p0to1)
           << " p10=" << canonicalDouble(cn.readout.p1to0)
           << " tPhiT=" << canonicalDouble(cn.dephasing.tPhiTransmonNs)
           << " tPhiC=" << canonicalDouble(cn.dephasing.tPhiCavityNs)
           << " gamma=" << canonicalDouble(cn.damping.gamma)
           << " pErase=" << canonicalDouble(cn.erasure.fraction)
           << " herald=" << (cn.erasure.heralded ? 1 : 0);
    }
    return fnv1a64(os.str());
}

std::string
mcRunFingerprintSummary(const McOptions& options)
{
    std::ostringstream os;
    os << "seed=" << options.seed << " trials=" << options.trials
       << " batch=" << options.batchSize << " decoder="
       << decoderKindName(options.decoder)
       << " target=" << options.targetFailures;
    return os.str();
}

std::string
McCheckpoint::open(const std::string& path, const std::string& summary)
{
    std::ifstream in(path);
    if (in.is_open())
        return read(in, path, &summary);
    // Fresh run: no state yet (a leftover <path>.tmp from a crash
    // mid-save is deliberately ignored -- its rename never happened,
    // so it was never the committed state).
    *this = McCheckpoint();
    path_ = path;
    summary_ = summary;
    fingerprint_ = fnv1a64(summary);
    return "";
}

std::string
McCheckpoint::load(const std::string& path)
{
    std::ifstream in(path);
    if (in.is_open())
        return read(in, path, nullptr);
    *this = McCheckpoint();
    return "cannot open checkpoint file '" + path + "'";
}

std::string
McCheckpoint::read(std::istream& in, const std::string& path,
                   const std::string* expected)
{
    *this = McCheckpoint();
    std::vector<std::string> lines;
    std::vector<std::vector<std::string>> tokens;
    for (std::string line; std::getline(in, line);) {
        tokens.push_back(tokensOf(line));
        lines.push_back(line);
    }
    // Token k of line i; empty past the end of the line.
    auto token = [&tokens](size_t i, size_t k) {
        return k < tokens[i].size() ? tokens[i][k] : std::string();
    };
    auto reject = [&path](const std::string& why) {
        return "checkpoint file '" + path + "' rejected: " + why;
    };

    if (lines.empty())
        return reject("empty file");
    if (token(0, 0) != kMagic)
        return reject("not a vlq-mc-checkpoint file");
    if (token(0, 1) != std::to_string(kFormatVersion))
        return reject("unsupported format version '" + token(0, 1)
                      + "' (expected " + std::to_string(kFormatVersion)
                      + ")");
    // Every line but the config line has a fixed number of tokens.
    for (size_t i = 0; i < lines.size(); ++i)
        if (i != 2 && tokens[i].size() > (token(i, 0) == "point" ? 5u : 2u))
            return reject("trailing junk on line " + std::to_string(i + 1));
    if (lines.size() < 4)
        return reject("truncated file (missing header or end marker)");

    // The fingerprint hashes the config line, and open() also requires
    // it to hash the caller's summary.
    uint64_t fileFingerprint = 0;
    if (token(1, 0) != "fingerprint"
        || !parseU64Token(token(1, 1), 16, fileFingerprint))
        return reject("malformed fingerprint line");
    if (lines[2].rfind("config ", 0) != 0)
        return reject("malformed config line");
    const std::string config = lines[2].substr(7);
    if (fileFingerprint != fnv1a64(config))
        return reject("fingerprint does not match config line (corrupt "
                      "or hand-edited file)");
    if (expected && fileFingerprint != fnv1a64(*expected)) {
        return reject(
            "config fingerprint mismatch -- the file records a "
            "different run\n  file:    " + config
            + "\n  current: " + *expected
            + "\nDelete the file (or point --checkpoint elsewhere) "
              "to start fresh.");
    }

    // Body: point lines, closed by the end marker. Meta lines from
    // older builds are checked for shape and dropped.
    size_t i = 3;
    for (; i < lines.size() && token(i, 0) != "end"; ++i) {
        const std::string line = std::to_string(i + 1);
        if (token(i, 0) == "meta") {
            const size_t eq = token(i, 1).find('=');
            if (eq == 0 || eq == std::string::npos)
                return reject("malformed meta line " + line);
            continue;
        }
        if (token(i, 0) != "point")
            return reject("malformed line " + line + ": '" + lines[i] + "'");
        uint64_t key = 0;
        CheckpointEntry entry;
        uint64_t doneValue = 0;
        if (!parseU64Token(token(i, 1), 16, key)
            || !parseField(token(i, 2), "trials", entry.trialsDone)
            || !parseField(token(i, 3), "failures", entry.failures)
            || !parseField(token(i, 4), "done", doneValue) || doneValue > 1)
            return reject("malformed point line " + line);
        entry.done = doneValue != 0;
        if (entry.failures > entry.trialsDone)
            return reject("corrupt counts on line " + line
                          + " (failures > trials)");
        if (!entries_.emplace(key, entry).second)
            return reject("duplicate point key " + token(i, 1));
    }
    if (i >= lines.size())
        return reject("truncated file (no end marker)");
    uint64_t count = 0;
    if (!parseU64Token(token(i, 1), 10, count) || count != entries_.size())
        return reject("end marker count mismatch (file truncated or "
                      "edited)");
    for (size_t j = i + 1; j < lines.size(); ++j)
        if (!lines[j].empty())
            return reject("trailing junk after end marker");

    path_ = path;
    summary_ = config;
    fingerprint_ = fileFingerprint;
    return "";
}

const CheckpointEntry*
McCheckpoint::find(uint64_t pointKey) const
{
    auto it = entries_.find(pointKey);
    return it == entries_.end() ? nullptr : &it->second;
}

void
McCheckpoint::update(uint64_t pointKey, const CheckpointEntry& entry)
{
    entries_[pointKey] = entry;
}

std::string
McCheckpoint::save() const
{
    if (path_.empty())
        return "checkpoint not bound to a path";
    obs::StageTimer obsTimer("checkpoint.save");
    if (obs::metricsEnabled()) {
        static const obs::Counter saves =
            obs::Counter::get("checkpoint.saves");
        saves.add(1);
    }
    std::ostringstream os;
    os << kMagic << ' ' << kFormatVersion << '\n'
       << "fingerprint " << hex16(fingerprint_) << '\n'
       << "config " << summary_ << '\n';
    for (const auto& [key, entry] : entries_) {
        os << "point " << hex16(key) << " trials=" << entry.trialsDone
           << " failures=" << entry.failures << " done="
           << (entry.done ? 1 : 0) << '\n';
    }
    os << "end " << entries_.size() << '\n';

    const std::string tmp = path_ + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out.is_open())
            return "cannot write checkpoint temp file '" + tmp + "'";
        out << os.str();
        out.flush();
        if (!out.good())
            return "failed writing checkpoint temp file '" + tmp + "'";
    }
    if (std::rename(tmp.c_str(), path_.c_str()) != 0)
        return "failed renaming '" + tmp + "' over '" + path_ + "': "
               + std::strerror(errno);
    return "";
}

std::string
mergeCheckpoints(const std::vector<std::string>& shards,
                 const std::string& out)
{
    if (shards.empty())
        return "no shard files to merge";
    // Each shard's config as key=value fields, its seed held apart.
    std::vector<McCheckpoint> loaded(shards.size());
    std::vector<std::map<std::string, std::string>> fields;
    std::vector<std::string> seeds;
    for (size_t s = 0; s < shards.size(); ++s) {
        if (std::string err = loaded[s].load(shards[s]); !err.empty())
            return err;
        std::map<std::string, std::string>& f = fields.emplace_back();
        for (const std::string& token : tokensOf(loaded[s].summary()))
            if (const size_t eq = token.find('='); eq != std::string::npos)
                f[token.substr(0, eq)] = token.substr(eq + 1);
        seeds.push_back(f.count("seed") ? f["seed"] : "?");
        f.erase("seed");
    }

    for (size_t s = 1; s < shards.size(); ++s) {
        // Sorted by key, so a key whose value differs comes out twice
        // in a row.
        std::vector<std::pair<std::string, std::string>> differing;
        std::set_symmetric_difference(fields[0].begin(), fields[0].end(),
                                      fields[s].begin(), fields[s].end(),
                                      std::back_inserter(differing));
        std::string diff;
        for (size_t k = 0; k < differing.size(); ++k)
            if (k == 0 || differing[k].first != differing[k - 1].first)
                diff += (diff.empty() ? "" : ", ") + differing[k].first;
        if (!diff.empty())
            return shards[s] + ": config mismatch vs " + shards[0]
                   + " (differs in: " + diff + ") -- shards of different "
                   "runs cannot be merged";
    }

    // Every run samples each point's trials from 0, so two shards with
    // the same seed cover overlapping trial ranges.
    std::map<std::string, std::string> shardOfSeed;
    std::string seedList;
    for (size_t s = 0; s < shards.size(); ++s) {
        auto [it, fresh] = shardOfSeed.emplace(seeds[s], shards[s]);
        if (!fresh)
            return shards[s] + ": overlaps " + it->second
                   + " -- both use seed=" + seeds[s] + ", so their trial "
                   "ranges overlap and merging would double-count";
        seedList += (s ? "," : "") + seeds[s];
    }

    McCheckpoint merged;
    std::map<uint64_t, size_t> copies; // shards holding each point
    for (const McCheckpoint& shard : loaded)
        for (const auto& [key, entry] : shard.points()) {
            CheckpointEntry& sum =
                merged.entries_.try_emplace(key, CheckpointEntry{0, 0, true})
                    .first->second;
            sum.trialsDone += entry.trialsDone;
            sum.failures += entry.failures;
            sum.done = sum.done && entry.done;
            ++copies[key];
            if (sum.trialsDone < entry.trialsDone)
                return "trial count of point " + hex16(key)
                       + " overflows 64 bits";
        }
    // A shard that never reached a point (one killed early) still owes
    // it trials, so the merged point is partial.
    for (auto& [key, sum] : merged.entries_)
        sum.done = sum.done && copies[key] == loaded.size();
    std::string shared;
    for (const std::string& token : tokensOf(loaded[0].summary()))
        if (token.rfind("seed=", 0) != 0)
            shared += (shared.empty() ? "" : " ") + token;
    merged.path_ = out;
    merged.summary_ = "seed=merged:" + seedList + " " + shared;
    merged.fingerprint_ = fnv1a64(merged.summary_);
    return merged.save();
}

} // namespace vlq
