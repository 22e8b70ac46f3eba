#include "serve/trace_gen.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <random>
#include <string_view>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "common/logging.hh"
#include "serve/drain.hh"

namespace ianus::serve
{

namespace
{

/**
 * Uniform double in [0, 1) with 53 random bits, built explicitly from
 * two mt19937 draws. std::generate_canonical and the std distributions
 * are implementation-defined; this recipe is identical everywhere.
 */
double
canonical53(std::mt19937 &rng)
{
    std::uint64_t hi = rng();
    std::uint64_t lo = rng();
    std::uint64_t bits = ((hi << 32) | lo) >> 11; // top 53 bits
    return static_cast<double>(bits) * 0x1.0p-53;
}

/** Exponential inter-arrival gap in ms for rate @p per_sec. */
double
expGapMs(std::mt19937 &rng, double per_sec)
{
    double u = canonical53(rng);
    return -std::log1p(-u) / per_sec * 1000.0;
}

std::uint64_t
pick(std::mt19937 &rng, const std::vector<std::uint64_t> &choices)
{
    return choices[rng() % choices.size()];
}

/** An mt19937 seeded with the whole 64-bit @p seed, then @p stream when
 *  given (one independent stream per session or client). Plain
 *  mt19937(seed) would silently truncate to 32 bits. seed_seq is fully
 *  specified by the standard, so this stays cross-platform
 *  deterministic. */
std::mt19937
seededRng(std::uint64_t seed, std::optional<std::size_t> stream = {})
{
    std::vector<std::uint32_t> words{static_cast<std::uint32_t>(seed),
                                     static_cast<std::uint32_t>(seed >> 32)};
    if (stream)
        words.push_back(static_cast<std::uint32_t>(*stream));
    std::seed_seq seq(words.begin(), words.end());
    return std::mt19937(seq);
}

/** Fatal unless both shape choice lists are non-empty and the clock
 *  origin @p start_ms is non-negative: what every generator needs. */
void
checkShapesAndStart(const std::vector<std::uint64_t> &inputs,
                    const std::vector<std::uint64_t> &outputs,
                    double start_ms = 0.0)
{
    if (inputs.empty() || outputs.empty())
        IANUS_FATAL("trace generation needs non-empty input and output "
                    "token choice lists");
    if (start_ms < 0.0)
        IANUS_FATAL("trace start must be non-negative, got ", start_ms,
                    " ms");
}

/** The fields of @p text between @p sep characters, in order (a text
 *  without one is a single field). */
std::vector<std::string>
splitFields(std::string_view text, char sep)
{
    std::vector<std::string> fields;
    std::size_t pos = 0;
    for (;;) {
        const std::size_t next = text.find(sep, pos);
        fields.emplace_back(text.substr(pos, next - pos));
        if (next == std::string_view::npos)
            return fields;
        pos = next + 1;
    }
}

/** The first of [p, end) that is not a space or a tab, the blanks
 *  that separate fields. */
const char *
skipBlanks(const char *p, const char *end)
{
    while (p != end && (*p == ' ' || *p == '\t'))
        ++p;
    return p;
}

/**
 * Parse the decimal unsigned integer that starts at @p p after any
 * spaces or tabs: digits only, so no sign, no other whitespace and no
 * value above 2^64 - 1. Returns one past its last digit, or nullptr if
 * there is none; a null @p p stays null, so a row's fields chain.
 */
const char *
parseUnsigned(const char *p, const char *end, std::uint64_t &out)
{
    if (!p)
        return nullptr;
    p = skipBlanks(p, end);
    const auto [next, ec] = std::from_chars(p, end, out);
    return ec == std::errc() ? next : nullptr;
}

/** parseUnsigned() for a decimal double: an optional '-', then a
 *  fixed or scientific literal, nan or inf, within the double range. */
const char *
parseDouble(const char *p, const char *end, double &out)
{
    if (!p)
        return nullptr;
    p = skipBlanks(p, end);
    const auto [next, ec] =
        std::from_chars(p, end, out, std::chars_format::general);
    return ec == std::errc() ? next : nullptr;
}

/** Next '\n'-terminated (or final) line of @p text from @p pos,
 *  without its newline; advances @p pos past the newline. Returns
 *  false at end of text. */
bool
nextLine(std::string_view text, std::size_t &pos, std::string_view &line)
{
    if (pos >= text.size())
        return false;
    std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos)
        nl = text.size();
    line = text.substr(pos, nl - pos);
    pos = nl + 1;
    return true;
}

/** The whole text of the file at @p path; fatal, naming @p what, if it
 *  cannot be opened or read. A directory, a pipe or any other file that
 *  is not a regular file is a read error. A file of mapBytes or more is
 *  mapped read-only where it lies instead of copied into the heap: a
 *  mapping costs a fixed ~10 us more than one read, while a copy takes
 *  its length in heap that, once freed, glibc may hand back to the OS
 *  and fault in again on the next load. (Like any mapping, a file
 *  truncated by another process while it is parsed ends the process
 *  with SIGBUS rather than a read error.) */
class FileText
{
  public:
    static constexpr std::size_t mapBytes = 64 * 1024;

    FileText(const std::string &path, const char *what)
    {
        const int fd = ::open(path.c_str(), O_RDONLY);
        if (fd < 0)
            IANUS_FATAL("cannot open ", what, " '", path, "'");
        struct stat st{};
        bool ok = ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode);
        const std::size_t size =
            ok ? static_cast<std::size_t>(st.st_size) : 0;
        if (ok && size >= mapBytes) {
            int flags = MAP_PRIVATE;
#ifdef MAP_POPULATE
            flags |= MAP_POPULATE; // map every page now, not one fault each
#endif
            void *at = ::mmap(nullptr, size, PROT_READ, flags, fd, 0);
            ok = at != MAP_FAILED;
            if (ok)
                mapped_ = {static_cast<const char *>(at), size};
        } else if (ok) {
            copy_.resize(size);
            for (std::size_t done = 0; ok && done < size;) {
                const ::ssize_t n =
                    ::read(fd, copy_.data() + done, size - done);
                ok = n > 0;
                done += ok ? static_cast<std::size_t>(n) : 0;
            }
        }
        ::close(fd);
        if (!ok)
            IANUS_FATAL("read error loading ", what, " '", path, "'");
    }

    ~FileText()
    {
        if (!mapped_.empty())
            ::munmap(const_cast<char *>(mapped_.data()), mapped_.size());
    }

    FileText(const FileText &) = delete;
    FileText &operator=(const FileText &) = delete;

    std::string_view text() const
    {
        return mapped_.empty() ? std::string_view(copy_) : mapped_;
    }

  private:
    std::string_view mapped_; ///< the mapping, when the file is mapped
    std::string copy_;        ///< the file's bytes, when it is not
};

} // namespace

double
ArrivalTrace::horizonMs() const
{
    return requests.empty() ? 0.0 : requests.back().arrivalMs;
}

double
ArrivalTrace::offeredTokensPerSec() const
{
    double horizon = horizonMs();
    if (horizon <= 0.0)
        return 0.0;
    std::uint64_t tokens = 0;
    for (const TimedRequest &t : requests)
        tokens += t.request.outputTokens;
    return static_cast<double>(tokens) / (horizon / 1000.0);
}

bool
ArrivalTrace::hasSessions() const
{
    for (const TimedRequest &t : requests)
        if (t.sessionId != 0)
            return true;
    return false;
}

ArrivalTrace
generatePoissonTrace(const TraceOptions &opts)
{
    if (opts.arrivalsPerSec <= 0.0)
        IANUS_FATAL("Poisson arrival rate must be positive, got ",
                    opts.arrivalsPerSec, " req/s");
    checkShapesAndStart(opts.inputTokenChoices, opts.outputTokenChoices,
                        opts.startMs);
    if (!(opts.longFraction >= 0.0 && opts.longFraction <= 1.0))
        IANUS_FATAL("long-request fraction must be in [0, 1], got ",
                    opts.longFraction);
    if (opts.longFraction > 0.0 && (opts.longInputTokenChoices.empty() ||
                                    opts.longOutputTokenChoices.empty()))
        IANUS_FATAL("a non-zero long-request fraction needs non-empty "
                    "long input and output token choice lists");

    std::mt19937 rng = seededRng(opts.seed);
    ArrivalTrace trace;
    trace.requests.reserve(opts.requests);
    double clock = opts.startMs;
    for (std::size_t i = 0; i < opts.requests; ++i) {
        TimedRequest t;
        // The long-traffic coin is drawn only when the knob is on:
        // longFraction == 0 consumes no RNG state, keeping the default
        // stream — and every trace built on it — bit-identical.
        const bool long_req =
            opts.longFraction > 0.0 &&
            canonical53(rng) < opts.longFraction;
        t.request.inputTokens =
            pick(rng, long_req ? opts.longInputTokenChoices
                               : opts.inputTokenChoices);
        t.request.outputTokens =
            pick(rng, long_req ? opts.longOutputTokenChoices
                               : opts.outputTokenChoices);
        clock += expGapMs(rng, opts.arrivalsPerSec);
        t.arrivalMs = clock;
        trace.requests.push_back(t);
    }
    return trace;
}

// --- Production request logs (CSV import) -----------------------------------

namespace
{

/** Header-name normalization: lowercase with '_', '-', and spaces
 *  dropped, so "ContextTokens", "context_tokens", and "Context Tokens"
 *  all name the same column. */
std::string
normalizeColumn(const std::string &name)
{
    std::string out;
    out.reserve(name.size());
    for (char c : name) {
        if (c == '_' || c == '-' || c == ' ')
            continue;
        out.push_back(static_cast<char>(
            c >= 'A' && c <= 'Z' ? c - 'A' + 'a' : c));
    }
    return out;
}

/** Days since 1970-01-01 of civil date y-m-d (proleptic Gregorian) —
 *  the standard days_from_civil recipe, exact over the whole range a
 *  request log could plausibly hold. */
long long
daysFromCivil(long long y, unsigned m, unsigned d)
{
    y -= m <= 2;
    const long long era = (y >= 0 ? y : y - 399) / 400;
    const unsigned yoe = static_cast<unsigned>(y - era * 400);
    const unsigned doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
    const unsigned doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    return era * 146097 + static_cast<long long>(doe) - 719468;
}

/** Parse `YYYY-MM-DD hh:mm:ss[.frac]` (or with a 'T' separator and an
 *  optional trailing 'Z') into absolute milliseconds since the epoch.
 *  Returns false on anything else. */
bool
parseCalendarMs(const std::string &field, double &out_ms)
{
    int y = 0, mo = 0, d = 0, h = 0, mi = 0, n = 0;
    double sec = 0.0;
    char sep = 0;
    if (std::sscanf(field.c_str(), "%d-%d-%d%c%d:%d:%lf%n", &y, &mo, &d,
                    &sep, &h, &mi, &sec, &n) != 7)
        return false;
    std::size_t rest = static_cast<std::size_t>(n);
    if (rest < field.size() && field[rest] == 'Z')
        ++rest;
    if (rest != field.size())
        return false;
    // %lf also reads nan, which no ordering test below would catch.
    if ((sep != ' ' && sep != 'T') || mo < 1 || mo > 12 || d < 1 ||
        d > 31 || h < 0 || h > 23 || mi < 0 || mi > 59 ||
        !(sec >= 0.0 && sec < 61.0))
        return false;
    const double days = static_cast<double>(daysFromCivil(y, mo, d));
    out_ms = ((days * 86400.0 + h * 3600.0 + mi * 60.0) + sec) * 1000.0;
    return true;
}

/** Strict full-field double parse (finite; no trailing junk). */
bool
parseNumericMs(const std::string &field, double &out_ms)
{
    if (field.empty())
        return false;
    char *end = nullptr;
    out_ms = std::strtod(field.c_str(), &end);
    return end == field.c_str() + field.size() && std::isfinite(out_ms);
}

} // namespace

ArrivalTrace
importRequestLog(std::string_view csv)
{
    std::size_t pos = 0;
    std::string_view line;
    // The next line, less one trailing '\r' (CRLF logs), before anything
    // reads it: a field or a fatal message.
    auto nextRow = [&] {
        if (!nextLine(csv, pos, line))
            return false;
        if (!line.empty() && line.back() == '\r')
            line.remove_suffix(1);
        return true;
    };
    if (!nextRow())
        IANUS_FATAL("request log is empty (a CSV log needs a header "
                    "row)");

    // Header: locate the required and optional columns by normalized
    // name; unknown columns ride along ignored.
    // CSV fields split on commas (the schema has no quoted fields).
    std::vector<std::string> header = splitFields(line, ',');
    constexpr std::size_t npos = static_cast<std::size_t>(-1);
    std::size_t tsCol = npos, inCol = npos, outCol = npos, sessCol = npos;
    for (std::size_t c = 0; c < header.size(); ++c) {
        const std::string name = normalizeColumn(header[c]);
        if (name == "timestamp" || name == "time" || name == "arrival" ||
            name == "arrivalms")
            tsCol = c;
        else if (name == "contexttokens" || name == "prompttokens" ||
                 name == "inputtokens")
            inCol = c;
        else if (name == "generatedtokens" || name == "outputtokens" ||
                 name == "completiontokens")
            outCol = c;
        else if (name == "sessionid" || name == "conversationid")
            sessCol = c;
    }
    if (tsCol == npos)
        IANUS_FATAL("request log header '", line, "' names no timestamp "
                    "column (timestamp / time / arrival / arrival_ms)");
    if (inCol == npos)
        IANUS_FATAL("request log header '", line, "' names no prompt "
                    "column (context_tokens / prompt_tokens / "
                    "input_tokens)");
    if (outCol == npos)
        IANUS_FATAL("request log header '", line, "' names no output "
                    "column (generated_tokens / output_tokens / "
                    "completion_tokens)");

    struct LogRow
    {
        double stampMs = 0.0;
        std::uint64_t input = 0;
        std::uint64_t output = 0;
        std::uint64_t sessionId = 0; ///< dense id, 0 = single-turn
    };
    std::vector<LogRow> rows;
    std::map<std::string, std::uint64_t> sessionIds;
    // One timestamp style per log: mixing raw milliseconds with
    // calendar stamps would interleave two unrelated clocks.
    enum class Style : std::uint8_t { Unknown, Numeric, Calendar };
    Style style = Style::Unknown;

    std::size_t rowNo = 1; // header was row 1
    while (nextRow()) {
        ++rowNo;
        if (line.empty())
            continue; // blank (often a trailing newline)
        std::vector<std::string> fields = splitFields(line, ',');
        const std::size_t need =
            std::max(std::max(tsCol, inCol),
                     std::max(outCol, sessCol == npos ? 0 : sessCol));
        if (fields.size() <= need)
            IANUS_FATAL("request log row ", rowNo, " has ",
                        fields.size(), " fields, fewer than the header's "
                        "columns: '", line, "'");
        LogRow r;
        double ms = 0.0;
        if (parseNumericMs(fields[tsCol], ms)) {
            if (style == Style::Calendar)
                IANUS_FATAL("request log row ", rowNo, " switches from "
                            "calendar timestamps to a plain number: '",
                            fields[tsCol], "'");
            style = Style::Numeric;
        } else if (parseCalendarMs(fields[tsCol], ms)) {
            if (style == Style::Numeric)
                IANUS_FATAL("request log row ", rowNo, " switches from "
                            "numeric timestamps to a calendar stamp: '",
                            fields[tsCol], "'");
            style = Style::Calendar;
        } else {
            IANUS_FATAL("request log row ", rowNo, " has an unparsable "
                        "timestamp '", fields[tsCol],
                        "' (need a number of ms or "
                        "YYYY-MM-DD hh:mm:ss[.frac])");
        }
        r.stampMs = ms;

        auto count = [](const std::string &field, std::uint64_t &out) {
            const char *end = field.data() + field.size();
            return parseUnsigned(field.data(), end, out) == end;
        };
        if (!count(fields[inCol], r.input))
            IANUS_FATAL("request log row ", rowNo, " needs an unsigned "
                        "decimal prompt token count, got '", fields[inCol],
                        "'");
        if (!count(fields[outCol], r.output))
            IANUS_FATAL("request log row ", rowNo, " needs an unsigned "
                        "decimal output token count, got '", fields[outCol],
                        "'");
        if (const char *why = shapeError({r.input, r.output}))
            IANUS_FATAL("request log row ", rowNo, ": ", why);

        if (sessCol != npos && !fields[sessCol].empty()) {
            // Dense ids in first-appearance order: the mapping is a
            // pure function of the file, so re-imports agree.
            auto [it, fresh] = sessionIds.emplace(
                fields[sessCol], sessionIds.size() + 1);
            (void)fresh;
            r.sessionId = it->second;
        }
        rows.push_back(r);
    }
    if (rows.empty())
        IANUS_FATAL("request log has a header but no data rows");

    // Stable sort by timestamp (ties keep file order), then rebase so
    // the first arrival is 0 — the serving clock cares about offsets,
    // not the log's epoch.
    std::stable_sort(rows.begin(), rows.end(),
                     [](const LogRow &a, const LogRow &b) {
                         return a.stampMs < b.stampMs;
                     });
    const double base = rows.front().stampMs;
    if (!std::isfinite(rows.back().stampMs - base))
        IANUS_FATAL("request log spans ", rows.back().stampMs - base,
                    " ms from its first to its last timestamp, beyond "
                    "the range of a double");

    // Session turns count per session in sorted order; each turn's
    // prefix is the conversation so far (prior input + output) when
    // the log's own prompt length admits it, else 0 (a context reset).
    struct SessionState
    {
        std::uint64_t turns = 0;
        std::uint64_t prevInput = 0;
        std::uint64_t prevOutput = 0;
    };
    std::map<std::uint64_t, SessionState> sessions;

    ArrivalTrace trace;
    trace.requests.reserve(rows.size());
    for (const LogRow &r : rows) {
        TimedRequest t;
        t.arrivalMs = r.stampMs - base;
        t.request.inputTokens = r.input;
        t.request.outputTokens = r.output;
        if (r.sessionId != 0) {
            SessionState &s = sessions[r.sessionId];
            t.sessionId = r.sessionId;
            t.turnIndex = s.turns;
            // prevInput + prevOutput < input, without overflow.
            if (s.turns > 0 && s.prevOutput < r.input &&
                s.prevInput < r.input - s.prevOutput)
                t.prefixTokens = s.prevInput + s.prevOutput;
            s.turns += 1;
            s.prevInput = r.input;
            s.prevOutput = r.output;
        }
        trace.requests.push_back(t);
    }
    return trace;
}

ArrivalTrace
loadRequestLog(const std::string &path)
{
    const FileText file(path, "request log");
    return importRequestLog(file.text());
}

// --- Non-stationary open-loop generators ------------------------------------

namespace
{

constexpr double kTwoPi = 6.283185307179586;

/** Lewis–Shedler thinning, the loop the diurnal and bursty generators
 *  share: candidates at the @p peak rate over [0, @p duration_ms), each
 *  kept with probability rate(t)/peak. The draw order is fixed — gap,
 *  coin, then shapes only on acceptance — so the trace is a pure
 *  function of the stream. @p rate sees the candidates' times in
 *  increasing order; each kept one arrives at opts.startMs + t. */
template <typename Options, typename RateFn>
ArrivalTrace
thin(const Options &opts, std::mt19937 &rng, double peak,
     double duration_ms, RateFn rate)
{
    ArrivalTrace trace;
    double t = 0.0; // profile-relative clock
    for (;;) {
        t += expGapMs(rng, peak);
        if (t >= duration_ms)
            break;
        const double u = canonical53(rng);
        if (u * peak < rate(t)) {
            TimedRequest req;
            req.request.inputTokens = pick(rng, opts.inputTokenChoices);
            req.request.outputTokens =
                pick(rng, opts.outputTokenChoices);
            req.arrivalMs = opts.startMs + t;
            trace.requests.push_back(req);
        }
    }
    return trace;
}

/** Strict full-field double parse for the rate-profile grammar. */
double
parseProfileField(const std::string &spec, const std::string &field,
                  const char *what)
{
    char *end = nullptr;
    double v = field.empty() ? 0.0 : std::strtod(field.c_str(), &end);
    if (field.empty() || end == field.c_str() || *end != '\0' ||
        !std::isfinite(v))
        IANUS_FATAL("rate profile '", spec, "' has an unparsable ", what,
                    " '", field, "'");
    return v;
}

} // namespace

double
RateProfile::rateAt(double t_ms) const
{
    if (!(t_ms >= 0.0) || t_ms >= durationMs)
        return 0.0;
    switch (kind) {
    case Kind::Constant:
        return baseRate;
    case Kind::Sinusoid:
        return baseRate +
               amplitudeRate * std::sin(kTwoPi * t_ms / periodMs);
    case Kind::Steps: {
        const std::size_t k = stepRates.size();
        std::size_t idx = static_cast<std::size_t>(
            t_ms / durationMs * static_cast<double>(k));
        if (idx >= k)
            idx = k - 1;
        return stepRates[idx];
    }
    }
    return 0.0;
}

double
RateProfile::peakRate() const
{
    switch (kind) {
    case Kind::Constant:
        return baseRate;
    case Kind::Sinusoid:
        return baseRate + amplitudeRate;
    case Kind::Steps: {
        double peak = 0.0;
        for (double r : stepRates)
            peak = std::max(peak, r);
        return peak;
    }
    }
    return 0.0;
}

RateProfile
parseRateProfile(const std::string &spec)
{
    const std::vector<std::string> fields = splitFields(spec, ':');
    RateProfile p;
    if (fields[0] == "const") {
        if (fields.size() != 3)
            IANUS_FATAL("rate profile '", spec,
                        "' must be const:RATE:DURATION_MS");
        p.kind = RateProfile::Kind::Constant;
        p.baseRate = parseProfileField(spec, fields[1], "rate");
        p.durationMs = parseProfileField(spec, fields[2], "duration");
        if (p.baseRate <= 0.0)
            IANUS_FATAL("rate profile '", spec,
                        "' needs a positive rate, got ", p.baseRate);
    } else if (fields[0] == "sin") {
        if (fields.size() != 5)
            IANUS_FATAL("rate profile '", spec, "' must be "
                        "sin:BASE:AMPLITUDE:PERIOD_MS:DURATION_MS");
        p.kind = RateProfile::Kind::Sinusoid;
        p.baseRate = parseProfileField(spec, fields[1], "base rate");
        p.amplitudeRate =
            parseProfileField(spec, fields[2], "amplitude");
        p.periodMs = parseProfileField(spec, fields[3], "period");
        p.durationMs = parseProfileField(spec, fields[4], "duration");
        if (p.baseRate <= 0.0)
            IANUS_FATAL("rate profile '", spec,
                        "' needs a positive base rate, got ", p.baseRate);
        if (p.amplitudeRate < 0.0 || p.amplitudeRate > p.baseRate)
            IANUS_FATAL("rate profile '", spec, "' amplitude ",
                        p.amplitudeRate, " must be in [0, base rate ",
                        p.baseRate, "] (the rate must stay "
                        "non-negative)");
        if (p.periodMs <= 0.0)
            IANUS_FATAL("rate profile '", spec,
                        "' needs a positive period, got ", p.periodMs);
    } else if (fields[0] == "steps") {
        if (fields.size() != 3)
            IANUS_FATAL("rate profile '", spec,
                        "' must be steps:DURATION_MS:R0,R1,...");
        p.kind = RateProfile::Kind::Steps;
        p.durationMs = parseProfileField(spec, fields[1], "duration");
        for (const std::string &field : splitFields(fields[2], ',')) {
            double r = parseProfileField(spec, field, "step rate");
            if (r < 0.0)
                IANUS_FATAL("rate profile '", spec,
                            "' step rates must be non-negative, got ",
                            r);
            p.stepRates.push_back(r);
        }
        if (p.peakRate() <= 0.0)
            IANUS_FATAL("rate profile '", spec,
                        "' needs at least one positive step rate");
    } else {
        IANUS_FATAL("rate profile '", spec, "' has unknown kind '",
                    fields[0], "' (const, sin, or steps)");
    }
    if (p.durationMs <= 0.0)
        IANUS_FATAL("rate profile '", spec,
                    "' needs a positive duration, got ", p.durationMs);
    return p;
}

ArrivalTrace
generateDiurnalTrace(const DiurnalOptions &opts)
{
    if (!(opts.profile.durationMs > 0.0))
        IANUS_FATAL("diurnal generation needs a profile with a positive "
                    "duration, got ",
                    opts.profile.durationMs, " ms");
    const double peak = opts.profile.peakRate();
    if (!(peak > 0.0))
        IANUS_FATAL("diurnal generation needs a profile with a positive "
                    "peak rate, got ",
                    peak, " req/s");
    checkShapesAndStart(opts.inputTokenChoices, opts.outputTokenChoices,
                        opts.startMs);
    std::mt19937 rng = seededRng(opts.seed);
    return thin(opts, rng, peak, opts.profile.durationMs,
                [&](double t) { return opts.profile.rateAt(t); });
}

ArrivalTrace
generateBurstyTrace(const BurstyOptions &opts)
{
    if (!(opts.durationMs > 0.0))
        IANUS_FATAL("bursty generation needs a positive duration, got ",
                    opts.durationMs, " ms");
    if (!(opts.baseRate > 0.0))
        IANUS_FATAL("bursty generation needs a positive base rate, got ",
                    opts.baseRate, " req/s");
    if (!(opts.burstRateRatio >= 1.0))
        IANUS_FATAL("burst rate ratio must be >= 1 (bursts raise the "
                    "rate), got ",
                    opts.burstRateRatio);
    if (!(opts.meanBurstMs > 0.0) || !(opts.meanGapMs > 0.0))
        IANUS_FATAL("bursty generation needs positive mean burst and "
                    "gap dwell times, got ",
                    opts.meanBurstMs, " / ", opts.meanGapMs, " ms");
    checkShapesAndStart(opts.inputTokenChoices, opts.outputTokenChoices,
                        opts.startMs);
    std::mt19937 rng = seededRng(opts.seed);

    // The modulating chain first: alternating exponential dwells
    // (starting calm), recorded as switch instants. Drawing the whole
    // trajectory before the arrival stream keeps both streams pure
    // functions of the seed.
    std::vector<double> switches;
    {
        double t = 0.0;
        bool burst = false;
        while (t < opts.durationMs) {
            const double mean =
                burst ? opts.meanBurstMs : opts.meanGapMs;
            const double u = canonical53(rng);
            t += mean * -std::log1p(-u);
            switches.push_back(t);
            burst = !burst;
        }
    }

    // Thin a candidate stream at the burst-state rate: calm arrivals
    // survive with probability 1/ratio, burst arrivals always. A
    // walking switch index keeps the state lookup O(1) amortized
    // (candidates are increasing).
    const double maxRate = opts.baseRate * opts.burstRateRatio;
    std::size_t sw = 0;
    return thin(opts, rng, maxRate, opts.durationMs, [&](double t) {
        while (sw < switches.size() && switches[sw] <= t)
            ++sw;
        const bool burst = (sw % 2) == 1; // odd switch count = burst
        return burst ? maxRate : opts.baseRate;
    });
}

ArrivalTrace
generateSessionTrace(const SessionOptions &opts)
{
    if (opts.sessions == 0)
        IANUS_FATAL("a session trace needs at least one session");
    if (!(opts.meanTurns >= 1.0))
        IANUS_FATAL("mean turns per session must be >= 1, got ",
                    opts.meanTurns);
    if (opts.maxTurns == 0)
        IANUS_FATAL("max turns per session must be positive");
    if (!(opts.meanThinkMs > 0.0))
        IANUS_FATAL("session think time must be a positive number of "
                    "ms, got ",
                    opts.meanThinkMs, " (turns need distinct arrivals)");
    if (opts.sessionsPerSec <= 0.0)
        IANUS_FATAL("session start rate must be positive, got ",
                    opts.sessionsPerSec, " sessions/s");
    if (opts.deltaTokenChoices.empty() || opts.outputTokenChoices.empty())
        IANUS_FATAL("session generation needs non-empty delta and "
                    "output token choice lists");
    for (std::uint64_t d : opts.deltaTokenChoices)
        if (d == 0 || d > opts.maxContextTokens)
            IANUS_FATAL("session delta choice ", d,
                        " must be in [1, maxContextTokens = ",
                        opts.maxContextTokens,
                        "] (every delta must fit an opening turn)");
    for (std::uint64_t o : opts.outputTokenChoices)
        if (o == 0)
            IANUS_FATAL("session output choices must be positive");

    // Session starts are one Poisson stream; everything inside a
    // session comes from its own (seed, index) stream, so adding
    // sessions never perturbs the earlier ones' draws.
    std::mt19937 start_rng = seededRng(opts.seed);

    ArrivalTrace trace;
    double start_clock = 0.0;
    for (std::size_t s = 0; s < opts.sessions; ++s) {
        start_clock += expGapMs(start_rng, opts.sessionsPerSec);
        std::mt19937 rng = seededRng(opts.seed, s);

        // Geometric turn count with the requested mean (inverse CDF
        // over success probability 1/mean), clamped to [1, maxTurns].
        std::uint64_t turns = 1;
        const double p = 1.0 / opts.meanTurns;
        if (p < 1.0) {
            double u = canonical53(rng);
            double k = 1.0 + std::floor(std::log1p(-u) / std::log1p(-p));
            if (k > 1.0)
                turns = static_cast<std::uint64_t>(k);
        }
        turns = std::min<std::uint64_t>(turns, opts.maxTurns);

        double arrival = start_clock;
        std::uint64_t prefix = 0;
        for (std::uint64_t k = 0; k < turns; ++k) {
            const std::uint64_t delta = pick(rng, opts.deltaTokenChoices);
            // Context window: a conversation that can no longer fit
            // its history plus a fresh prompt ends here, whatever the
            // turn draw said (the delta and the turn count were
            // already drawn, so truncation never shifts the session's
            // other streams).
            if (prefix + delta > opts.maxContextTokens)
                break;
            TimedRequest t;
            t.sessionId = s + 1; // 0 is the single-turn sentinel
            t.turnIndex = k;
            t.prefixTokens = prefix;
            t.request.inputTokens = prefix + delta;
            t.request.outputTokens = pick(rng, opts.outputTokenChoices);
            t.arrivalMs = arrival;
            trace.requests.push_back(t);

            prefix = t.request.inputTokens + t.request.outputTokens;
            double u = canonical53(rng);
            arrival += opts.meanThinkMs * -std::log1p(-u);
        }
    }
    std::sort(trace.requests.begin(), trace.requests.end(),
              [](const TimedRequest &a, const TimedRequest &b) {
                  if (a.arrivalMs != b.arrivalMs)
                      return a.arrivalMs < b.arrivalMs;
                  if (a.sessionId != b.sessionId)
                      return a.sessionId < b.sessionId;
                  return a.turnIndex < b.turnIndex;
              });
    return trace;
}

std::vector<std::uint64_t>
submitAll(const ArrivalTrace &trace, ServingEngine &engine)
{
    std::vector<std::uint64_t> ids;
    ids.reserve(trace.requests.size());
    engine.reserve(engine.pending() + trace.requests.size());
    for (const TimedRequest &t : trace.requests)
        ids.push_back(engine.submit(t.request, t.arrivalMs, t.sessionId,
                                    t.turnIndex, t.prefixTokens,
                                    t.source));
    return ids;
}

// --- Closed-loop clients ----------------------------------------------------

namespace
{

/**
 * The client loop runClosedLoop and runMixedDrain share: drains
 * @p engine with opts.clients closed-loop clients tagged @p source
 * over the open-loop @p background rows (tagged kBatchSource), and
 * returns the report. The clients' arrivals land in @p realized,
 * sorted by arrival time.
 */
ServingReport
runClients(ServingEngine &engine, const ClosedLoopOptions &opts,
           const ArrivalTrace &background, std::uint32_t source,
           ArrivalTrace &realized)
{
    if (opts.clients == 0)
        IANUS_FATAL("a closed-loop drain needs at least one client");
    if (opts.requestsPerClient == 0)
        IANUS_FATAL("closed-loop clients must send at least one request "
                    "each");
    if (!(opts.meanThinkMs >= 0.0))
        IANUS_FATAL("mean think time must be a non-negative number of "
                    "ms, got ",
                    opts.meanThinkMs);
    checkShapesAndStart(opts.inputTokenChoices, opts.outputTokenChoices);
    if (engine.pending() != 0)
        IANUS_FATAL("a closed-loop drain needs an engine with no "
                    "pending requests (",
                    engine.pending(), " queued)");

    // One RNG stream per client, derived from (seed, client index):
    // every client's shape and think draws are fixed by the seed alone,
    // independent of the completion order the pool produces and of the
    // background traffic — which is what makes the run
    // seed-deterministic end to end.
    struct Client
    {
        std::mt19937 rng;
        std::size_t sent = 0;
    };
    std::vector<Client> clients(opts.clients);
    for (std::size_t c = 0; c < opts.clients; ++c)
        clients[c].rng = seededRng(opts.seed, c);

    auto drawShape = [&](Client &c) {
        workloads::InferenceRequest req;
        req.inputTokens = pick(c.rng, opts.inputTokenChoices);
        req.outputTokens = pick(c.rng, opts.outputTokenChoices);
        return req;
    };
    // Exponential think with the given mean; mean 0 degenerates to an
    // immediate re-submit but still burns the draw, so the stream stays
    // aligned across think-time settings.
    auto drawThinkMs = [&](Client &c) {
        double u = canonical53(c.rng);
        return opts.meanThinkMs * -std::log1p(-u);
    };
    auto record = [&](const workloads::InferenceRequest &req,
                      double arrival_ms) {
        TimedRequest t;
        t.request = req;
        t.arrivalMs = arrival_ms;
        t.source = source;
        realized.requests.push_back(t);
    };

    std::map<std::uint64_t, std::size_t> owner; // client ids only

    // First arrivals: one think draw past time zero, per client, in
    // arrival order (submit() requires it), ties broken by client
    // index.
    struct FirstArrival
    {
        double arrivalMs;
        std::size_t client;
        workloads::InferenceRequest request;
    };
    std::vector<FirstArrival> first;
    first.reserve(opts.clients);
    for (std::size_t c = 0; c < opts.clients; ++c) {
        workloads::InferenceRequest req = drawShape(clients[c]);
        first.push_back({drawThinkMs(clients[c]), c, req});
    }
    std::sort(first.begin(), first.end(),
              [](const FirstArrival &a, const FirstArrival &b) {
                  return a.arrivalMs != b.arrivalMs
                             ? a.arrivalMs < b.arrivalMs
                             : a.client < b.client;
              });

    // Merge at the injection layer: background rows (already in
    // non-decreasing order — the ArrivalTrace contract) and the
    // clients' first arrivals submit as one non-decreasing stream.
    // Ties put the background row first — a fixed, documented order,
    // since submit() groups same-tick arrivals into one burst anyway.
    std::size_t bi = 0, fi = 0;
    while (bi < background.requests.size() || fi < first.size()) {
        const bool takeBackground =
            bi < background.requests.size() &&
            (fi >= first.size() ||
             background.requests[bi].arrivalMs <= first[fi].arrivalMs);
        if (takeBackground) {
            const TimedRequest &t = background.requests[bi++];
            engine.submit(t.request, t.arrivalMs, t.sessionId,
                          t.turnIndex, t.prefixTokens, kBatchSource);
        } else {
            const FirstArrival &f = first[fi++];
            std::uint64_t id =
                engine.submit(f.request, f.arrivalMs, 0, 0, 0, source);
            owner.emplace(id, f.client);
            clients[f.client].sent = 1;
            record(f.request, f.arrivalMs);
        }
    }

    // The feedback edge: each completion wakes its client, which thinks
    // and injects its next request into the running drain; background
    // completions wake no one. The guard clears the hook on every exit
    // — it captures this function's locals, and a throwing drain must
    // not leave the engine holding a dangling hook.
    struct HookGuard
    {
        ServingEngine *engine;
        ~HookGuard() { engine->setCompletionHook(nullptr); }
    } hook_guard{&engine};
    engine.setCompletionHook([&](const RequestResult &r,
                                 const InferenceReport &) {
        auto it = owner.find(r.id);
        if (it == owner.end())
            return; // background (or foreign) traffic
        Client &c = clients[it->second];
        if (c.sent >= opts.requestsPerClient)
            return;
        workloads::InferenceRequest req = drawShape(c);
        double arrival = r.finishMs + drawThinkMs(c);
        std::uint64_t id = engine.inject(req, arrival, source);
        owner.emplace(id, it->second);
        c.sent += 1;
        record(req, arrival);
    });
    ServingReport report = engine.drain();

    // Injection order is completion order; the realized trace is the
    // open-loop view of the same arrivals, so sort it into arrival
    // order (stable: simultaneous arrivals keep completion order).
    std::stable_sort(realized.requests.begin(), realized.requests.end(),
                     [](const TimedRequest &a, const TimedRequest &b) {
                         return a.arrivalMs < b.arrivalMs;
                     });
    return report;
}

} // namespace

ClosedLoopResult
runClosedLoop(ServingEngine &engine, const ClosedLoopOptions &opts)
{
    ClosedLoopResult result;
    result.report = runClients(engine, opts, ArrivalTrace{}, 0,
                               result.realized);
    return result;
}

// --- Mixed drains -----------------------------------------------------------

MixedResult
runMixedDrain(ServingEngine &engine, const ClosedLoopOptions &interactive,
              const ArrivalTrace &background)
{
    MixedResult result;
    result.report = runClients(engine, interactive, background,
                               kInteractiveSource,
                               result.realizedInteractive);
    return result;
}

// --- Versioned trace files --------------------------------------------------

namespace
{

constexpr const char *traceMagic = "ianus-arrival-trace v1";
constexpr const char *traceMagicV2 = "ianus-arrival-trace v2";

} // namespace

std::string
formatTrace(const ArrivalTrace &trace)
{
    // Tagless traces keep emitting v1 byte for byte; the v2 columns
    // only appear when there is a session to describe.
    const bool v2 = trace.hasSessions();
    std::string out = v2 ? traceMagicV2 : traceMagic;
    out += '\n';
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%zu\n", trace.requests.size());
    out += buf;
    for (const TimedRequest &t : trace.requests) {
        // %.17g round-trips IEEE doubles bit-exactly, so
        // format(parse(format(t))) == format(t) byte for byte.
        if (v2)
            std::snprintf(buf, sizeof(buf),
                          "%.17g %llu %llu %llu %llu %llu\n", t.arrivalMs,
                          (unsigned long long)t.request.inputTokens,
                          (unsigned long long)t.request.outputTokens,
                          (unsigned long long)t.sessionId,
                          (unsigned long long)t.turnIndex,
                          (unsigned long long)t.prefixTokens);
        else
            std::snprintf(buf, sizeof(buf), "%.17g %llu %llu\n",
                          t.arrivalMs,
                          (unsigned long long)t.request.inputTokens,
                          (unsigned long long)t.request.outputTokens);
        out += buf;
    }
    return out;
}

ArrivalTrace
parseTrace(std::string_view text)
{
    // Each line is read in place: a row is a view into @p text, parsed
    // field by field with std::from_chars.
    std::size_t pos = 0;
    std::string_view line;
    if (!nextLine(text, pos, line) ||
        (line != traceMagic && line != traceMagicV2))
        IANUS_FATAL("arrival trace must start with '", traceMagic,
                    "' or '", traceMagicV2, "', got '", line, "'");
    const bool v2 = (line == traceMagicV2);
    if (!nextLine(text, pos, line))
        IANUS_FATAL("arrival trace is missing its request-count line");
    std::uint64_t count = 0;
    if (parseUnsigned(line.data(), line.data() + line.size(), count) !=
        line.data() + line.size())
        IANUS_FATAL("arrival trace request count must be a non-negative "
                    "integer, got '",
                    line, "'");

    ArrivalTrace trace;
    // The header count is untrusted: cap the reserve by what the text
    // could possibly hold (>= 6 bytes per row), so a corrupt count
    // fails with the parser's diagnostic, not bad_alloc.
    trace.requests.reserve(static_cast<std::size_t>(
        std::min<std::uint64_t>(count, text.size() / 4)));
    double prev = 0.0;
    std::map<std::uint64_t, std::uint64_t> next_turn;
    for (std::uint64_t i = 0; i < count; ++i) {
        if (!nextLine(text, pos, line))
            IANUS_FATAL("arrival trace ends after ", i, " of ", count,
                        " requests");
        TimedRequest t;
        const char *end = line.data() + line.size();
        const char *p = parseDouble(line.data(), end, t.arrivalMs);
        p = parseUnsigned(p, end, t.request.inputTokens);
        p = parseUnsigned(p, end, t.request.outputTokens);
        if (v2) {
            p = parseUnsigned(p, end, t.sessionId);
            p = parseUnsigned(p, end, t.turnIndex);
            p = parseUnsigned(p, end, t.prefixTokens);
        }
        // Every row error names the row and quotes it.
        const auto row = [&] {
            return detail::fold("arrival trace row ", i, " '", line, "': ");
        };
        if (p != end)
            IANUS_FATAL(row(), "expected 'arrival_ms input output",
                        v2 ? " session_id turn_index prefix_tokens" : "",
                        "'");
        checkRow(t, prev, row);
        if (t.sessionId != 0) {
            std::uint64_t expected = 0;
            auto it = next_turn.find(t.sessionId);
            if (it != next_turn.end())
                expected = it->second;
            if (t.turnIndex != expected)
                IANUS_FATAL(row(), "session ", t.sessionId, " gives turn ",
                            t.turnIndex, " but turn ", expected,
                            " was expected (turns must count 0,1,2,... "
                            "in row order)");
            next_turn[t.sessionId] = t.turnIndex + 1;
        }
        prev = t.arrivalMs;
        trace.requests.push_back(t);
    }
    while (nextLine(text, pos, line))
        if (!line.empty())
            IANUS_FATAL("arrival trace has trailing content after its ",
                        count, " requests: '", line, "'");
    return trace;
}

void
saveTrace(const ArrivalTrace &trace, const std::string &path)
{
    // Binary mode: the format owns its newlines, so the bytes on disk
    // are identical on every platform.
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        IANUS_FATAL("cannot open '", path, "' for writing");
    std::string text = formatTrace(trace);
    std::size_t wrote = std::fwrite(text.data(), 1, text.size(), f);
    // Close unconditionally before judging the write: IANUS_FATAL
    // throws, and a short write must not leak the descriptor.
    bool closed = std::fclose(f) == 0;
    if (wrote != text.size() || !closed)
        IANUS_FATAL("short write saving arrival trace to '", path, "'");
}

ArrivalTrace
loadTrace(const std::string &path)
{
    const FileText file(path, "arrival trace");
    return parseTrace(file.text());
}

} // namespace ianus::serve
