#include "engine/obs/trace.h"

#include <cstdlib>

namespace mtbase {
namespace obs {

namespace {

Tracer* g_tracer_override = nullptr;

constexpr size_t kMaxStatementChars = 400;

std::string FormatMs(double ms) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", ms);
  return buf;
}

// Nonzero ExecStats fields as JSON members, in declaration order, named as
// the struct's fields (tools/check_trace_schema.py reads the same list).
void AppendStatsJson(const engine::ExecStats& s, std::string* out) {
  *out += "{";
  bool first = true;
  engine::ForEachExecStatsField(
      [&](const char* name, uint64_t engine::ExecStats::*field) {
        if (s.*field == 0) return;
        if (!first) *out += ", ";
        *out += "\"";
        *out += name;
        *out += "\": " + std::to_string(s.*field);
        first = false;
      });
  *out += "}";
}

}  // namespace

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void StatementTrace::FinishFromStatus(const Status& st) {
  if (st.ok()) {
    outcome = "ok";
    return;
  }
  const std::string& msg = st.message();
  if (msg.find("plan verification failed") != std::string::npos) {
    outcome = "refused";
  } else if (msg.find("rewrite audit failed") != std::string::npos) {
    outcome = "refused";
    // The audit refusal message carries its codes in parentheses:
    // "rewrite audit failed (DFILTER_MISSING, ...):\n...".
    size_t l = msg.find('(');
    size_t r = msg.find(')');
    if (l != std::string::npos && r != std::string::npos && r > l) {
      codes = msg.substr(l + 1, r - l - 1);
    }
  } else {
    outcome = "error";
  }
  // The failing phase is always the last span recorded: execution aborts at
  // the first non-OK status.
  if (!spans.empty()) {
    spans.back().outcome = outcome;
    spans.back().codes = codes;
  }
}

std::string StatementTrace::ToJson() const {
  std::string out = "{\"seq\": " + std::to_string(seq) + ", \"layer\": \"" +
                    JsonEscape(layer) + "\", \"statement\": \"" +
                    JsonEscape(statement) + "\", \"outcome\": \"" +
                    JsonEscape(outcome) + "\"";
  if (!codes.empty()) out += ", \"codes\": \"" + JsonEscape(codes) + "\"";
  out += ", \"spans\": [";
  for (size_t i = 0; i < spans.size(); ++i) {
    const TraceSpan& sp = spans[i];
    if (i > 0) out += ", ";
    out += "{\"phase\": \"" + JsonEscape(sp.phase) + "\", \"duration_ms\": " +
           FormatMs(sp.duration_ms) + ", \"outcome\": \"" +
           JsonEscape(sp.outcome) + "\"";
    if (!sp.codes.empty()) out += ", \"codes\": \"" + JsonEscape(sp.codes) + "\"";
    if (sp.has_stats) {
      out += ", \"stats\": ";
      AppendStatsJson(sp.stats, &out);
    }
    out += "}";
  }
  out += "]}";
  return out;
}

Tracer* Tracer::Global() {
  if (g_tracer_override != nullptr) return g_tracer_override;
  static Tracer* env_tracer = [] {
    const char* path = std::getenv("MTBASE_TRACE");
    if (path == nullptr || *path == '\0') return static_cast<Tracer*>(nullptr);
    Tracer* t = new Tracer(path);
    if (!t->enabled()) {
      delete t;
      return static_cast<Tracer*>(nullptr);
    }
    return t;
  }();
  return env_tracer;
}

void Tracer::SetGlobalForTesting(Tracer* t) { g_tracer_override = t; }

bool Tracer::GlobalEnabled() {
  Tracer* t = Global();
  return t != nullptr && t->enabled();
}

Tracer::Tracer(const std::string& path) {
  file_ = std::fopen(path.c_str(), "a");
}

Tracer::~Tracer() {
  if (file_ != nullptr) std::fclose(file_);
}

void Tracer::Emit(StatementTrace* rec) {
  if (file_ == nullptr || rec == nullptr) return;
  std::lock_guard<std::mutex> lock(mu_);
  rec->seq = ++next_seq_;
  std::string line = rec->ToJson();
  line += "\n";
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fflush(file_);
}

TraceRecordScope::TraceRecordScope(Tracer* tracer, StatementTrace** slot,
                                   const char* layer,
                                   const std::string& statement) {
  if (tracer == nullptr || !tracer->enabled() || slot == nullptr) return;
  if (*slot != nullptr) {
    // Nested statement at the same layer: append to the enclosing record.
    record_ = *slot;
    return;
  }
  tracer_ = tracer;
  slot_ = slot;
  owning_ = true;
  owned_.layer = layer;
  owned_.statement = statement.size() > kMaxStatementChars
                         ? statement.substr(0, kMaxStatementChars)
                         : statement;
  record_ = &owned_;
  *slot_ = record_;
}

TraceRecordScope::~TraceRecordScope() {
  if (!owning_) return;
  *slot_ = nullptr;
  tracer_->Emit(&owned_);
}

void TraceRecordScope::FinishFromStatus(const Status& st) {
  if (owning_) owned_.FinishFromStatus(st);
}

SpanTimer::SpanTimer(StatementTrace* rec, const char* phase,
                     const engine::ExecStats* live)
    : rec_(rec),
      phase_(phase),
      live_(live),
      t0_(std::chrono::steady_clock::now()) {
  if (rec_ != nullptr && live_ != nullptr) start_ = *live_;
}

SpanTimer::~SpanTimer() {
  if (rec_ == nullptr) return;
  TraceSpan sp;
  sp.phase = phase_;
  sp.duration_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - t0_)
          .count();
  if (live_ != nullptr) {
    sp.has_stats = true;
    sp.stats = *live_ - start_;
  }
  rec_->spans.push_back(std::move(sp));
}

}  // namespace obs
}  // namespace mtbase
