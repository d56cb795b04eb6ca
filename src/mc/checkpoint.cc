#include "mc/checkpoint.h"

#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
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
    path_.clear();
    entries_.clear();
    summary_ = summary;
    fingerprint_ = fnv1a64(summary);

    std::ifstream in(path);
    if (!in.is_open()) {
        // Fresh run: no state yet (a leftover <path>.tmp from a crash
        // mid-save is deliberately ignored -- its rename never
        // happened, so it was never the committed state).
        path_ = path;
        return "";
    }

    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);

    auto reject = [&path](const std::string& why) {
        return "checkpoint file '" + path + "' rejected: " + why;
    };

    if (lines.empty())
        return reject("empty file");

    // Header: magic + version.
    {
        std::istringstream hs(lines[0]);
        std::string magic;
        long long version = -1;
        hs >> magic >> version;
        if (magic != kMagic)
            return reject("not a vlq-mc-checkpoint file");
        if (version != kFormatVersion)
            return reject("unsupported format version "
                          + std::to_string(version) + " (expected "
                          + std::to_string(kFormatVersion) + ")");
    }
    if (lines.size() < 4)
        return reject("truncated file (missing header or end marker)");

    // Fingerprint line.
    {
        std::istringstream fs(lines[1]);
        std::string tag;
        std::string hexValue;
        fs >> tag >> hexValue;
        uint64_t fileFingerprint = 0;
        if (tag != "fingerprint"
            || !parseU64Token(hexValue, 16, fileFingerprint))
            return reject("malformed fingerprint line");
        if (lines[2].rfind("config ", 0) != 0)
            return reject("malformed config line");
        if (fileFingerprint != fingerprint_) {
            return reject(
                "config fingerprint mismatch -- the file records a "
                "different run\n  file:    " + lines[2].substr(7)
                + "\n  current: " + summary
                + "\nDelete the file (or point --checkpoint elsewhere) "
                  "to start fresh.");
        }
    }

    // Body: point lines, closed by the end marker. Meta lines from
    // older builds are checked for shape and dropped.
    size_t i = 3;
    for (; i < lines.size(); ++i) {
        std::istringstream ps(lines[i]);
        std::string tag;
        ps >> tag;
        if (tag == "end")
            break;
        if (tag == "meta") {
            std::string kv;
            std::string extra;
            ps >> kv;
            if (ps >> extra)
                return reject("trailing junk on line "
                              + std::to_string(i + 1));
            size_t eq = kv.find('=');
            if (eq == 0 || eq == std::string::npos)
                return reject("malformed meta line "
                              + std::to_string(i + 1));
            continue;
        }
        if (tag != "point")
            return reject("malformed line " + std::to_string(i + 1)
                          + ": '" + lines[i] + "'");
        std::string keyText;
        std::string trialsText;
        std::string failuresText;
        std::string doneText;
        std::string extra;
        ps >> keyText >> trialsText >> failuresText >> doneText;
        if (ps >> extra)
            return reject("trailing junk on line " + std::to_string(i + 1));
        uint64_t key = 0;
        CheckpointEntry entry;
        uint64_t doneValue = 0;
        if (!parseU64Token(keyText, 16, key)
            || !parseField(trialsText, "trials", entry.trialsDone)
            || !parseField(failuresText, "failures", entry.failures)
            || !parseField(doneText, "done", doneValue) || doneValue > 1)
            return reject("malformed point line " + std::to_string(i + 1));
        entry.done = doneValue != 0;
        if (entry.failures > entry.trialsDone)
            return reject("corrupt counts on line " + std::to_string(i + 1)
                          + " (failures > trials)");
        if (!entries_.emplace(key, entry).second)
            return reject("duplicate point key " + keyText);
    }
    if (i >= lines.size())
        return reject("truncated file (no end marker)");
    {
        std::istringstream es(lines[i]);
        std::string tag;
        std::string countText;
        es >> tag >> countText;
        uint64_t count = 0;
        if (!parseU64Token(countText, 10, count)
            || count != entries_.size())
            return reject("end marker count mismatch (file truncated or "
                          "edited)");
    }
    for (size_t j = i + 1; j < lines.size(); ++j)
        if (!lines[j].empty())
            return reject("trailing junk after end marker");

    path_ = path;
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

} // namespace vlq
