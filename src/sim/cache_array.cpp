#include "sim/cache_array.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace authenticache::sim {

namespace {

/** Severity bucket of a decode outcome; Ok never reaches this. */
EccSeverity
severityOf(ecc::DecodeStatus status)
{
    switch (status) {
      case ecc::DecodeStatus::CorrectedData:
      case ecc::DecodeStatus::CorrectedCheck:
      // A detect-only scheme cannot repair, but a detected event is
      // the same benign, consumable observation a correction is: the
      // stored word is intact and a self-test rewrite recovers it.
      case ecc::DecodeStatus::Detected:
        return EccSeverity::Corrected;
      case ecc::DecodeStatus::Ok:
      case ecc::DecodeStatus::DoubleError:
      case ecc::DecodeStatus::Uncorrectable:
        break;
    }
    return EccSeverity::Uncorrectable;
}

} // namespace

EccCacheArray::EccCacheArray(const DeviceFaultModel &model_,
                             EccErrorLog &log_,
                             std::shared_ptr<ecc::EccScheme> scheme,
                             std::uint64_t access_seed)
    : model(model_), log(log_), code(std::move(scheme)),
      rng(access_seed)
{
    if (!code)
        throw std::invalid_argument(
            "EccCacheArray: null ECC scheme");
    const auto &geom = model.geometry();
    words.assign(geom.lines() * geom.wordsPerLine(), 0);
    checks.assign(words.size(), 0);
}

void
EccCacheArray::writeLine(const LinePoint &p,
                         std::span<const std::uint64_t> data)
{
    const auto &geom = model.geometry();
    if (data.size() != geom.wordsPerLine())
        throw std::invalid_argument("writeLine: word count mismatch");
    std::uint64_t base = geom.lineIndex(p) * geom.wordsPerLine();
    std::copy(data.begin(), data.end(), words.begin() + base);
    code->encodeBatch(data.data(), checks.data() + base, data.size());
    nWrites += geom.wordsPerLine();
}

void
EccCacheArray::fillLine(const LinePoint &p, std::uint64_t pattern)
{
    const auto &geom = model.geometry();
    std::uint64_t base = geom.lineIndex(p) * geom.wordsPerLine();
    std::uint64_t check = code->encode(pattern);
    for (std::uint32_t w = 0; w < geom.wordsPerLine(); ++w) {
        words[base + w] = pattern;
        checks[base + w] = check;
    }
    nWrites += geom.wordsPerLine();
}

void
EccCacheArray::applyFault(FaultKind kind, std::uint64_t line,
                          std::uint64_t &raw,
                          std::uint64_t &check) const
{
    auto flip = [&](std::uint32_t bit) {
        if (bit < 64)
            raw ^= 1ull << bit;
        else
            check ^= 1ull << ((bit - 64) % code->checkBits());
    };
    flip(model.weakBit(line));
    if (kind == FaultKind::Double)
        flip(model.weakBit2(line));
}

void
EccCacheArray::postEvent(const LinePoint &p, std::uint32_t word,
                         const ecc::DecodeResult &decoded)
{
    EccEvent event;
    event.line = p;
    event.word = word;
    event.bitPosition = decoded.bitPosition;
    event.vddMv = level;
    event.severity = severityOf(decoded.status);
    log.post(event);
}

ReadResult
EccCacheArray::readWord(const LinePoint &p, std::uint32_t word)
{
    const auto &geom = model.geometry();
    if (word >= geom.wordsPerLine())
        throw std::out_of_range("readWord: bad word index");

    ++nReads;
    const std::uint64_t line = geom.lineIndex(p);
    const std::uint64_t idx = line * geom.wordsPerLine() + word;
    std::uint64_t raw = words[idx];
    std::uint64_t check = checks[idx];

    // The weak cell lives in exactly one word of the line; only that
    // word can misread.
    if (word == model.weakWord(line)) {
        FaultKind kind = model.faultOn(line, level, conditions, rng);
        if (kind != FaultKind::None)
            applyFault(kind, line, raw, check);
    }

    ecc::DecodeResult decoded = code->decode(raw, check);

    ReadResult out;
    out.data = decoded.data;
    out.status = decoded.status;

    if (decoded.status != ecc::DecodeStatus::Ok)
        postEvent(p, word, decoded);
    return out;
}

LineAccessResult
EccCacheArray::readLine(const LinePoint &p)
{
    const auto &geom = model.geometry();
    LineAccessResult out;
    const std::uint64_t line = geom.lineIndex(p);
    const std::uint64_t base = line * geom.wordsPerLine();
    const std::uint32_t weak = model.weakWord(line);

    // Whole-line read: stage the stored words, inject the fault model
    // on the (single) weak word, then decode the line through the
    // scheme's batch kernel. The fault draw order matches the
    // word-at-a-time path exactly -- one faultOn() per line read, at
    // the weak word -- so replay streams are unchanged.
    constexpr std::size_t kChunk = 64;
    std::uint64_t raw[kChunk];
    std::uint64_t chk[kChunk];
    ecc::DecodeResult dec[kChunk];

    for (std::uint32_t off = 0; off < geom.wordsPerLine();
         off += kChunk) {
        const std::uint32_t m = static_cast<std::uint32_t>(
            std::min<std::size_t>(kChunk,
                                  geom.wordsPerLine() - off));
        for (std::uint32_t i = 0; i < m; ++i) {
            raw[i] = words[base + off + i];
            chk[i] = checks[base + off + i];
        }
        if (weak >= off && weak < off + m) {
            FaultKind kind =
                model.faultOn(line, level, conditions, rng);
            if (kind != FaultKind::None)
                applyFault(kind, line, raw[weak - off],
                           chk[weak - off]);
        }
        code->decodeBatch(raw, chk, dec, m);
        for (std::uint32_t i = 0; i < m; ++i) {
            ++nReads;
            if (dec[i].status == ecc::DecodeStatus::Ok)
                continue;
            if (severityOf(dec[i].status) == EccSeverity::Corrected)
                out.corrected = true;
            else
                out.uncorrectable = true;
            postEvent(p, off + i, dec[i]);
        }
    }
    return out;
}

SramCacheArray::SramCacheArray(const VminField &field,
                               const EnvironmentModel &env,
                               EccErrorLog &log_,
                               std::uint64_t access_seed,
                               std::shared_ptr<ecc::EccScheme> scheme)
    : SramModelHolder(field, env),
      EccCacheArray(SramModelHolder::model, log_,
                    scheme ? std::move(scheme)
                           : ecc::makeEccScheme("secded_72_64"),
                    access_seed)
{
}

} // namespace authenticache::sim
