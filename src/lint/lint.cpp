#include "lint/lint.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>

#include "obs/metrics.hpp"  // jsonEscape

namespace affinity::lint {

namespace {

// ------------------------------------------------------------ preprocessing

// Per-line views of a source file. Rules run over `code` (neither comments
// nor literals can violate a token rule) except metric-name and layering,
// which need literal contents and run over `text`.
struct Views {
  std::vector<std::string> raw;   ///< original lines (suppression scan)
  std::vector<std::string> code;  ///< comments and string/char literals stripped
  std::vector<std::string> text;  ///< comments stripped, literals kept
};

bool isWordChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '_';
}

Views preprocess(const std::string& content) {
  Views v;
  {
    std::string line;
    std::istringstream in(content);
    while (std::getline(in, line)) v.raw.push_back(line);
    if (v.raw.empty()) v.raw.emplace_back();
  }
  enum class St { kNormal, kLineComment, kBlockComment, kString, kChar };
  St st = St::kNormal;
  std::string code, text;
  for (std::size_t i = 0; i < content.size(); ++i) {
    const char c = content[i];
    const char next = i + 1 < content.size() ? content[i + 1] : '\0';
    if (c == '\n') {
      if (st == St::kLineComment) st = St::kNormal;
      v.code.push_back(code);
      v.text.push_back(text);
      code.clear();
      text.clear();
      continue;
    }
    switch (st) {
      case St::kNormal:
        if (c == '/' && next == '/') {
          st = St::kLineComment;
          ++i;
        } else if (c == '/' && next == '*') {
          st = St::kBlockComment;
          ++i;
        } else if (c == '"' && i >= 1 && content[i - 1] == 'R' &&
                   (i < 2 || !isWordChar(content[i - 2]) || content[i - 2] == '8')) {
          // Raw string literal R"delim(...)delim" — no escapes, may span
          // lines, may embed quotes (this very file's regexes do).
          std::size_t j = i + 1;
          std::string delim;
          while (j < content.size() && content[j] != '(') delim += content[j++];
          const std::string closer = ")" + delim + "\"";
          const std::size_t close = content.find(closer, j + 1);
          const std::size_t stop =
              close == std::string::npos ? content.size() : close + closer.size();
          code += "\"\"";
          text += '"';
          for (std::size_t k = i + 1; k < stop; ++k) {
            if (content[k] == '\n') {
              v.code.push_back(code);
              v.text.push_back(text);
              code.clear();
              text.clear();
            } else {
              text += content[k];
            }
          }
          i = stop - 1;
        } else if (c == '"') {
          st = St::kString;
          code += '"';
          text += '"';
        } else if (c == '\'') {
          st = St::kChar;
          code += '\'';
          text += '\'';
        } else {
          code += c;
          text += c;
        }
        break;
      case St::kLineComment:
        break;
      case St::kBlockComment:
        if (c == '*' && next == '/') {
          st = St::kNormal;
          ++i;
        }
        break;
      case St::kString:
        text += c;
        if (c == '\\' && next != '\0' && next != '\n') {
          text += next;
          ++i;
        } else if (c == '"') {
          code += '"';
          st = St::kNormal;
        }
        break;
      case St::kChar:
        text += c;
        if (c == '\\' && next != '\0' && next != '\n') {
          text += next;
          ++i;
        } else if (c == '\'') {
          code += '\'';
          st = St::kNormal;
        }
        break;
    }
  }
  v.code.push_back(code);
  v.text.push_back(text);
  while (v.code.size() < v.raw.size()) v.code.emplace_back();
  while (v.text.size() < v.raw.size()) v.text.emplace_back();
  return v;
}

// ---------------------------------------------------------------- utilities

/// Substring search with identifier boundaries at both word-char edges of
/// the token ("std::condition_variable" does not match ..._any).
bool containsToken(const std::string& line, const std::string& token) {
  std::size_t pos = 0;
  while ((pos = line.find(token, pos)) != std::string::npos) {
    const bool left_ok =
        pos == 0 || !(isWordChar(token.front()) && isWordChar(line[pos - 1]));
    const std::size_t end = pos + token.size();
    const bool right_ok =
        end >= line.size() || !(isWordChar(token.back()) && isWordChar(line[end]));
    if (left_ok && right_ok) return true;
    ++pos;
  }
  return false;
}

bool startsWith(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

/// "runtime" for "src/runtime/engine.hpp"; "" outside src/.
std::string srcSubdir(const std::string& rel_path) {
  if (!startsWith(rel_path, "src/")) return "";
  const std::size_t next = rel_path.find('/', 4);
  if (next == std::string::npos) return "";
  return rel_path.substr(4, next - 4);
}

// ------------------------------------------------------------------- scopes

const std::set<std::string>& metricDomains() {
  static const std::set<std::string> kDomains = {"sim", "sweep", "engine", "chaos",
                                                 "bench", "net", "sched", "rt"};
  return kDomains;
}

/// src/ layering: every subsystem's permitted `#include "dir/..."` targets
/// (besides itself). Mirrors the library link graph in src/*/CMakeLists.txt.
const std::map<std::string, std::set<std::string>>& layerDeps() {
  static const std::map<std::string, std::set<std::string>> kDeps = {
      {"util", {}},
      {"net", {"util"}},
      {"stats", {"util"}},
      {"obs", {"stats", "util"}},
      {"sim", {"util"}},
      {"cache", {"util"}},
      {"proto", {"util"}},
      {"flow", {"util"}},
      {"cachesim", {"cache", "util"}},
      {"sched", {"cache", "util"}},
      {"workload", {"net", "proto", "util"}},
      {"analytic", {"cache", "sched", "stats", "util"}},
      {"lint", {"obs", "util"}},
      {"runtime", {"flow", "net", "obs", "proto", "stats", "util", "workload"}},
      {"core",
       {"cache", "cachesim", "flow", "net", "obs", "proto", "sched", "sim", "stats", "util",
        "workload"}},
  };
  return kDeps;
}

/// Simulation-path dirs: results must be a pure function of config + seed,
/// so wall clocks are banned outright (steady_clock included).
const std::set<std::string>& simPathDirs() {
  static const std::set<std::string> kDirs = {"sim",      "cache", "cachesim", "proto",
                                              "workload", "sched", "analytic", "stats",
                                              "util",     "net",   "flow"};
  return kDirs;
}

/// Trees whose locking must go through the annotated aff primitives.
const std::set<std::string>& annotatedDirs() {
  static const std::set<std::string> kDirs = {"runtime", "obs", "core", "lint", "net", "flow"};
  return kDirs;
}

// ------------------------------------------------------------- suppressions

/// Scans raw lines for `afflint: allow(rule[, rule])` (suppresses that line
/// and the next — so the comment can sit above the construct) and
/// `afflint: allow-file(rule)` (whole file).
struct Suppressions {
  std::map<int, std::set<std::string>> by_line;  // 0-based line -> rules
  std::set<std::string> file_wide;

  bool allows(int line0, const std::string& rule) const {
    if (file_wide.count(rule) != 0) return true;
    for (int l = line0 - 1; l <= line0; ++l) {
      auto it = by_line.find(l);
      if (it != by_line.end() && it->second.count(rule) != 0) return true;
    }
    return false;
  }
};

Suppressions scanSuppressions(const std::vector<std::string>& raw) {
  static const std::regex kAllow(R"(afflint:\s*allow(-file)?\(([a-z-]+(?:\s*,\s*[a-z-]+)*)\))");
  Suppressions s;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    for (std::sregex_iterator it(raw[i].begin(), raw[i].end(), kAllow), end; it != end; ++it) {
      const bool file_wide = (*it)[1].matched;
      std::string rules = (*it)[2].str();
      std::replace(rules.begin(), rules.end(), ',', ' ');
      std::istringstream in(rules);
      std::string rule;
      while (in >> rule) {
        if (file_wide) {
          s.file_wide.insert(rule);
        } else {
          s.by_line[static_cast<int>(i)].insert(rule);
        }
      }
    }
  }
  return s;
}

// ------------------------------------------------------------------- rules

struct FileCtx {
  const std::string& path;
  const Views& v;
  Suppressions supp;
  std::vector<Finding>* out;

  void report(std::size_t line0, const std::string& rule, std::string message) const {
    if (supp.allows(static_cast<int>(line0), rule)) return;
    out->push_back(Finding{path, static_cast<int>(line0) + 1, rule, std::move(message)});
  }
};

void ruleMetricName(const FileCtx& ctx) {
  if (!startsWith(ctx.path, "src/") && !startsWith(ctx.path, "tools/") &&
      !startsWith(ctx.path, "bench/"))
    return;
  static const std::regex kCall(
      R"re((\.|->)\s*(counter|gauge|meanStat|mergeHistogram)\s*\(\s*(?:[A-Za-z_][A-Za-z0-9_]*\s*\+\s*)?"([^"]*)")re");
  for (std::size_t i = 0; i < ctx.v.text.size(); ++i) {
    const std::string& line = ctx.v.text[i];
    for (std::sregex_iterator it(line.begin(), line.end(), kCall), end; it != end; ++it) {
      const std::string literal = (*it)[3].str();
      std::string why;
      if (!validMetricName(literal, &why)) {
        ctx.report(i, "metric-name",
                   "metric name \"" + literal + "\" violates the OBSERVABILITY.md scheme: " + why);
      }
    }
  }
}

void ruleNondeterminism(const FileCtx& ctx) {
  if (!startsWith(ctx.path, "src/") && !startsWith(ctx.path, "tools/") &&
      !startsWith(ctx.path, "bench/"))
    return;
  static const std::regex kRand(R"((^|[^A-Za-z0-9_])s?rand\s*\()");
  static const std::regex kTime(R"((^|[^A-Za-z0-9_])time\s*\(\s*(nullptr|NULL|0)\s*\))");
  const bool sim_path = simPathDirs().count(srcSubdir(ctx.path)) != 0;
  for (std::size_t i = 0; i < ctx.v.code.size(); ++i) {
    const std::string& line = ctx.v.code[i];
    if (containsToken(line, "random_device")) {
      ctx.report(i, "nondeterminism",
                 "std::random_device is nondeterministic; derive seeds from the config "
                 "(util/rng.hpp, derivePointSeed)");
    }
    if (std::regex_search(line, kRand)) {
      ctx.report(i, "nondeterminism",
                 "rand()/srand() share hidden global state; use util/rng.hpp");
    }
    if (std::regex_search(line, kTime)) {
      ctx.report(i, "nondeterminism", "time(nullptr) is wall clock; runs must be replayable");
    }
    if (containsToken(line, "system_clock") || containsToken(line, "high_resolution_clock")) {
      ctx.report(i, "nondeterminism",
                 "wall/unspecified clocks are banned; use steady_clock outside sim paths, "
                 "virtual time inside");
    }
    if (sim_path && containsToken(line, "steady_clock")) {
      ctx.report(i, "nondeterminism",
                 "steady_clock in a simulation-path dir: simulation results must be a pure "
                 "function of config + seed (wall time belongs to runtime/obs/core)");
    }
  }
}

void ruleProtoCheck(const FileCtx& ctx) {
  if (!startsWith(ctx.path, "src/proto/")) return;
  static const std::regex kCheck(R"((^|[^A-Za-z0-9_])AFF_CHECK\s*\()");
  for (std::size_t i = 0; i < ctx.v.code.size(); ++i) {
    if (std::regex_search(ctx.v.code[i], kCheck)) {
      ctx.report(i, "proto-check",
                 "AFF_CHECK in src/proto/ aborts on what may be network input; return a typed "
                 "DropReason instead (AFF_DCHECK is fine for internal invariants)");
    }
  }
}

void ruleLayering(const FileCtx& ctx) {
  const std::string dir = srcSubdir(ctx.path);
  if (dir.empty()) return;
  static const std::regex kInclude(R"re(^\s*#\s*include\s*"([^"]+)")re");
  const auto& deps = layerDeps();
  for (std::size_t i = 0; i < ctx.v.text.size(); ++i) {
    std::smatch m;
    if (!std::regex_search(ctx.v.text[i], m, kInclude)) continue;
    const std::string target = m[1].str();
    const std::size_t slash = target.find('/');
    if (slash == std::string::npos) continue;  // same-dir include
    const std::string target_dir = target.substr(0, slash);
    if (target_dir == "bench" || target_dir == "tools" || target_dir == "tests" ||
        target_dir == "examples") {
      ctx.report(i, "layering", "src/ must not include from " + target_dir + "/ (\"" + target +
                                    "\"); move shared code into a src/ library");
      continue;
    }
    auto it = deps.find(dir);
    if (it == deps.end() || deps.find(target_dir) == deps.end()) continue;
    if (target_dir == dir || it->second.count(target_dir) != 0) continue;
    ctx.report(i, "layering", "src/" + dir + " may not include src/" + target_dir + " (\"" +
                                  target + "\"); allowed: self + lower layers only "
                                  "(docs/STATIC_ANALYSIS.md has the layer table)");
  }
}

void ruleRawMutex(const FileCtx& ctx) {
  if (annotatedDirs().count(srcSubdir(ctx.path)) == 0) return;
  static const char* kBanned[] = {
      "std::mutex",       "std::timed_mutex",           "std::recursive_mutex",
      "std::shared_mutex", "std::condition_variable",    "std::condition_variable_any",
      "std::lock_guard",  "std::unique_lock",           "std::scoped_lock",
  };
  for (std::size_t i = 0; i < ctx.v.code.size(); ++i) {
    for (const char* token : kBanned) {
      if (containsToken(ctx.v.code[i], token)) {
        ctx.report(i, "raw-mutex",
                   std::string(token) + " in an annotated tree bypasses clang thread-safety "
                                        "analysis; use Mutex/MutexLock/CondVar (util/mutex.hpp)");
      }
    }
  }
}

/// src/runtime's steady-state frame path is zero-global-alloc by design
/// (util/arena.hpp; tests/arena_test.cpp pins it). Direct malloc-family
/// calls or raw byte-buffer `new` there reintroduce the global allocator
/// behind the arena's back, so both are banned in the runtime tree.
void ruleFrameArena(const FileCtx& ctx) {
  if (srcSubdir(ctx.path) != "runtime") return;
  static const std::regex kMalloc(R"((^|[^A-Za-z0-9_:.>])(malloc|calloc|realloc)\s*\()");
  static const std::regex kRawByteNew(
      R"(\bnew\s+(std\s*::\s*)?(uint8_t|std::uint8_t|byte|std::byte|unsigned\s+char|char)\s*\[)");
  for (std::size_t i = 0; i < ctx.v.code.size(); ++i) {
    const std::string& line = ctx.v.code[i];
    if (std::regex_search(line, kMalloc)) {
      ctx.report(i, "frame-arena",
                 "malloc-family call in src/runtime bypasses the frame arena; allocate "
                 "packet buffers through FrameArena/FrameBuf (util/arena.hpp)");
    }
    if (std::regex_search(line, kRawByteNew)) {
      ctx.report(i, "frame-arena",
                 "raw byte-buffer new[] in src/runtime bypasses the frame arena; use "
                 "FrameBuf (util/arena.hpp) so the frame path stays zero-global-alloc");
    }
  }
}

/// State held per flow on the frame path must live in bounded structures
/// (src/flow's fixed-budget FlowTable) so adversarial flow churn cannot
/// exhaust memory — the PR 7 invariant (docs/ROBUSTNESS.md). Node-based
/// std:: maps grow without limit and allocate per insert, so they are
/// banned in the runtime tree outright; control-plane uses (a map keyed
/// by worker id, say) are bounded by construction and may state so with
/// `afflint: allow(bounded-state)` plus a reason.
void ruleBoundedState(const FileCtx& ctx) {
  if (srcSubdir(ctx.path) != "runtime") return;
  static const char* kBanned[] = {"std::unordered_map", "std::map", "std::multimap",
                                  "std::unordered_multimap"};
  for (std::size_t i = 0; i < ctx.v.code.size(); ++i) {
    for (const char* token : kBanned) {
      if (containsToken(ctx.v.code[i], token)) {
        ctx.report(i, "bounded-state",
                   std::string(token) + " in src/runtime grows without bound under flow churn; "
                                        "keep per-flow state in the fixed-budget FlowTable "
                                        "(flow/flow_table.hpp, docs/ROBUSTNESS.md)");
      }
    }
  }
}

void ruleGuardedMutex(const FileCtx& ctx) {
  if (srcSubdir(ctx.path).empty()) return;
  // Declarations may carry a lockdep name ("Mutex mu_{\"Class::mu_\"}" —
  // the literal is stripped from the code view, leaving "{}") and trailing
  // AFF_ACQUIRED_BEFORE/AFTER ordering declarations, which often wrap onto
  // following lines — so the scan runs on the joined code view, not per line.
  static const std::regex kDecl(
      R"((^|\n)[ \t]*(?:mutable\s+)?(?:aff\s*::\s*|affinity\s*::\s*)?Mutex\s+([A-Za-z_][A-Za-z0-9_]*)\s*(?:\{[^}]*\})?\s*(?:AFF_ACQUIRED_(?:BEFORE|AFTER)\s*\([^)]*\)\s*)*;)");
  std::string whole;
  for (const auto& line : ctx.v.text) {
    whole += line;
    whole += '\n';
  }
  std::string code;
  for (const auto& line : ctx.v.code) {
    code += line;
    code += '\n';
  }
  for (std::sregex_iterator it(code.begin(), code.end(), kDecl), end; it != end; ++it) {
    const std::string name = (*it)[2].str();
    const std::size_t line0 = static_cast<std::size_t>(
        std::count(code.begin(), code.begin() + it->position(2), '\n'));
    const std::regex kRef("AFF_(PT_)?GUARDED_BY\\s*\\([^)]*\\b" + name +
                          "\\b[^)]*\\)|AFF_REQUIRES(_SHARED)?\\s*\\([^)]*\\b" + name +
                          "\\b[^)]*\\)");
    if (!std::regex_search(whole, kRef)) {
      ctx.report(line0, "guarded-mutex",
                 "Mutex '" + name + "' has no AFF_GUARDED_BY / AFF_PT_GUARDED_BY / AFF_REQUIRES "
                                    "reference in this file; say what it protects");
    }
  }
}

// ------------------------------------------- lock-order / blocking-under-lock
//
// The static half of the lock-discipline layer (util/lockdep.hpp is the
// dynamic half). A lexical brace-depth scan tracks which Mutexes are held at
// each point of a file — RAII MutexLocks until their scope closes, direct
// .lock() until the matching .unlock() or scope end, AFF_REQUIRES locks for
// the annotated function's body — and every acquisition made while something
// is held becomes an edge of the acquisition graph. AFF_ACQUIRED_BEFORE /
// AFTER declarations contribute intended-order edges. checkLockOrder then
// fails on any cycle, reporting the full witness chain.
//
// Nodes are canonical mutex names: the `Mutex mu_{"Class::mu_"}` constructor
// literal where one exists (resolved file-locally, then via the same-stem
// header partner, then by tree-wide uniqueness), else `<file-stem>::<id>`.
// Known limits, chosen over false positives: acquisitions through function
// calls are invisible (declare those orders with AFF_ACQUIRED_BEFORE), and
// try_lock is not treated as an acquisition.

/// "engine" for "src/runtime/engine.cpp".
std::string fileStem(const std::string& rel_path) {
  const std::size_t slash = rel_path.find_last_of('/');
  std::string base = slash == std::string::npos ? rel_path : rel_path.substr(slash + 1);
  const std::size_t dot = base.find_last_of('.');
  return dot == std::string::npos ? base : base.substr(0, dot);
}

struct NamedMutexDecl {
  std::string canonical;
  std::string rel_path;
};
/// identifier -> every `Mutex id{"Name"}` declaration seen (tree-wide when
/// built by buildLockGraph/lintTree, file-local in standalone lintFile).
using NameTable = std::map<std::string, std::vector<NamedMutexDecl>>;

void collectNamedMutexes(const std::string& rel_path, const Views& v, NameTable* table) {
  static const std::regex kNamed(
      R"re((^|[^A-Za-z0-9_])Mutex\s+([A-Za-z_][A-Za-z0-9_]*)\s*\{\s*"([^"]+)"\s*\})re");
  for (const auto& line : v.text) {
    for (std::sregex_iterator it(line.begin(), line.end(), kNamed), end; it != end; ++it)
      (*table)[(*it)[2].str()].push_back(NamedMutexDecl{(*it)[3].str(), rel_path});
  }
}

/// Trailing identifier of a lock expression: "mu" for "sh->mu", "mu_" for
/// "stacks_[i].mu_", the whole thing for "stack_mu_".
std::string lockExprId(const std::string& expr) {
  std::size_t end = expr.size();
  while (end > 0 && !isWordChar(expr[end - 1])) --end;
  std::size_t begin = end;
  while (begin > 0 && isWordChar(expr[begin - 1])) --begin;
  return expr.substr(begin, end - begin);
}

std::string canonicalLockName(const std::string& expr, const std::string& rel_path,
                              const NameTable& table) {
  const std::string id = lockExprId(expr);
  if (id.empty()) return expr;
  const auto it = table.find(id);
  if (it != table.end()) {
    for (const auto& d : it->second)
      if (d.rel_path == rel_path) return d.canonical;
    const std::string stem = fileStem(rel_path);
    for (const auto& d : it->second)
      if (fileStem(d.rel_path) == stem) return d.canonical;
    if (it->second.size() == 1) return it->second.front().canonical;
  }
  return fileStem(rel_path) + "::" + id;
}

/// One lock the scan believes held at the current point.
struct HeldLock {
  std::string expr;       ///< source expression as written
  std::string canonical;  ///< graph node name
  std::string site;       ///< "file:line" of the acquisition
  int release_depth;      ///< popped once brace depth drops below this
  std::string raii_var;   ///< MutexLock variable name; "" for direct/REQUIRES
  bool direct = false;    ///< explicit .lock(), releasable by .unlock()
};

void scanLockDiscipline(const FileCtx& ctx, const NameTable& table, LockGraph* g) {
  static const std::regex kMutexLockDecl(
      R"(MutexLock\s+([A-Za-z_][A-Za-z0-9_]*)\s*[({]\s*([^(){};]+?)\s*[)}])");
  static const std::regex kNamedDeclSkip(R"(Mutex\s+[A-Za-z_][A-Za-z0-9_]*\s*\{[^}]*\})");
  static const std::regex kDirectLock(
      R"(([A-Za-z_][A-Za-z0-9_]*(?:(?:\.|->)[A-Za-z_][A-Za-z0-9_]*)*)\s*\.\s*lock\s*\(\s*\))");
  static const std::regex kUnlock(
      R"(([A-Za-z_][A-Za-z0-9_]*(?:(?:\.|->)[A-Za-z_][A-Za-z0-9_]*)*)\s*\.\s*unlock\s*\(\s*\))");
  static const std::regex kRequires(R"(AFF_REQUIRES(?:_SHARED)?\s*\(([^)]*)\))");
  static const std::regex kWait(R"(\.\s*wait(?:_for|_until)?\s*\()");
  static const std::regex kSleep(R"(this_thread\s*::\s*sleep_(?:for|until)|\.\s*pause\s*\()");

  enum Kind { kSkip, kAcqRaii, kAcqDirect, kRelease, kRequiresEv, kWaitEv, kSleepEv };
  struct Event {
    std::size_t begin, end;
    Kind kind;
    std::string a, b;  // kAcqRaii: var, expr; others: expression/args
  };

  int depth = 0;
  std::vector<HeldLock> held;
  std::vector<std::pair<std::string, std::size_t>> pending;  // REQUIRES expr, line

  const auto canonical = [&](const std::string& expr) {
    return canonicalLockName(expr, ctx.path, table);
  };
  const auto site = [&](std::size_t line0) {
    return ctx.path + ":" + std::to_string(line0 + 1);
  };
  const auto acquire = [&](const std::string& expr, std::size_t line0,
                           const std::string& raii_var, bool direct) {
    HeldLock acq{expr, canonical(expr), site(line0), depth, raii_var, direct};
    if (!ctx.supp.allows(static_cast<int>(line0), "lock-order")) {
      for (const HeldLock& h : held)
        g->edges.push_back(LockEdge{h.canonical, acq.canonical, h.site, acq.site, false});
    }
    held.push_back(std::move(acq));
  };

  for (std::size_t i = 0; i < ctx.v.code.size(); ++i) {
    const std::string& line = ctx.v.code[i];

    std::vector<Event> events;
    const auto collect = [&](const std::regex& re, Kind kind) {
      for (std::sregex_iterator it(line.begin(), line.end(), re), end; it != end; ++it) {
        Event e{static_cast<std::size_t>(it->position(0)),
                static_cast<std::size_t>(it->position(0) + it->length(0)), kind, "", ""};
        if (kind == kAcqRaii) {
          e.a = (*it)[1].str();
          e.b = (*it)[2].str();
        } else if (kind == kAcqDirect || kind == kRelease || kind == kRequiresEv) {
          e.a = (*it)[1].str();
        } else if (kind == kWaitEv) {
          // First argument: up to the first top-level ',' or ')' after the
          // '(' the match ends on; "" (lenient: no check) if it spans lines.
          std::size_t c = e.end;
          int nest = 0;
          while (c < line.size() && !(nest == 0 && (line[c] == ',' || line[c] == ')'))) {
            if (line[c] == '(') ++nest;
            if (line[c] == ')') --nest;
            ++c;
          }
          if (c < line.size()) {
            std::string arg = line.substr(e.end, c - e.end);
            const std::size_t b = arg.find_first_not_of(" \t");
            const std::size_t f = arg.find_last_not_of(" \t");
            e.a = b == std::string::npos ? "" : arg.substr(b, f - b + 1);
          }
        }
        events.push_back(std::move(e));
      }
    };
    collect(kNamedDeclSkip, kSkip);
    collect(kMutexLockDecl, kAcqRaii);
    collect(kDirectLock, kAcqDirect);
    collect(kUnlock, kRelease);
    collect(kRequires, kRequiresEv);
    collect(kWait, kWaitEv);
    collect(kSleep, kSleepEv);
    std::stable_sort(events.begin(), events.end(),
                     [](const Event& a, const Event& b) { return a.begin < b.begin; });

    std::size_t ev = 0;
    for (std::size_t c = 0; c <= line.size();) {
      if (ev < events.size() && events[ev].begin == c) {
        const Event& e = events[ev++];
        switch (e.kind) {
          case kSkip:
            break;
          case kAcqRaii:
            acquire(e.b, i, e.a, false);
            break;
          case kAcqDirect:
            acquire(e.a, i, "", true);
            break;
          case kRelease:
            for (auto it = held.rbegin(); it != held.rend(); ++it) {
              if (it->raii_var == e.a || ((it->direct || it->raii_var.empty()) && it->expr == e.a)) {
                held.erase(std::next(it).base());
                break;
              }
            }
            break;
          case kRequiresEv: {
            std::istringstream in(e.a);
            std::string arg;
            while (std::getline(in, arg, ',')) {
              const std::size_t b = arg.find_first_not_of(" \t");
              if (b == std::string::npos) continue;
              const std::size_t f = arg.find_last_not_of(" \t");
              arg = arg.substr(b, f - b + 1);
              if (!arg.empty() && arg.front() != '!') pending.emplace_back(arg, i);
            }
            break;
          }
          case kWaitEv:
            if (!e.a.empty()) {
              const std::string target = canonical(e.a);
              for (const HeldLock& h : held) {
                if (h.canonical == target) continue;
                ctx.report(i, "blocking-under-lock",
                           "CondVar wait on '" + target + "' while also holding '" + h.canonical +
                               "' (acquired at " + h.site +
                               "); a waiter may hold only the condvar's own mutex — anything "
                               "else stays locked for the whole wait");
              }
            }
            break;
          case kSleepEv:
            if (!held.empty()) {
              const HeldLock& h = held.back();
              ctx.report(i, "blocking-under-lock",
                         "blocking sleep/backoff while holding '" + h.canonical +
                             "' (acquired at " + h.site +
                             "); release the lock before blocking — a sleeping holder stalls "
                             "every thread behind it");
            }
            break;
        }
        // Events with brace-bearing spans (initializer braces, MutexLock's
        // brace form) are skipped whole so those braces don't count as
        // scopes; call-shaped events just resume after the match.
        c = e.kind == kSkip || e.kind == kAcqRaii ? e.end : std::max(e.end, c + 1);
        while (ev < events.size() && events[ev].begin < c) ++ev;
        continue;
      }
      if (c == line.size()) break;
      const char ch = line[c];
      if (ch == '{') {
        ++depth;
        for (const auto& [expr, line0] : pending)
          held.push_back(HeldLock{expr, canonical(expr), site(line0), depth, "", false});
        pending.clear();
      } else if (ch == '}') {
        if (depth > 0) --depth;
        while (!held.empty() && held.back().release_depth > depth) held.pop_back();
      } else if (ch == ';') {
        pending.clear();  // AFF_REQUIRES on a declaration without a body
      }
      ++c;
    }
  }
}

/// AFF_ACQUIRED_BEFORE/AFTER declarations -> intended-order edges. Runs over
/// the joined code view so a declaration's argument list may wrap lines; the
/// subject is the `Mutex <id>` declared in the same statement.
void extractDeclaredOrders(const FileCtx& ctx, const NameTable& table, LockGraph* g) {
  std::string joined;
  for (const auto& l : ctx.v.code) {
    joined += l;
    joined += '\n';
  }
  static const std::regex kMacro(R"(AFF_ACQUIRED_(BEFORE|AFTER)\s*\()");
  static const std::regex kSubject(R"((^|[^A-Za-z0-9_])Mutex\s+([A-Za-z_][A-Za-z0-9_]*))");
  for (std::sregex_iterator it(joined.begin(), joined.end(), kMacro), end; it != end; ++it) {
    const bool before = (*it)[1].str() == "BEFORE";
    const std::size_t open = static_cast<std::size_t>(it->position(0) + it->length(0));
    const std::size_t close = joined.find(')', open);
    if (close == std::string::npos) continue;
    const auto line0 = static_cast<std::size_t>(
        std::count(joined.begin(), joined.begin() + it->position(0), '\n'));
    if (ctx.supp.allows(static_cast<int>(line0), "lock-order")) continue;
    std::size_t stmt = joined.rfind(';', static_cast<std::size_t>(it->position(0)));
    stmt = stmt == std::string::npos ? 0 : stmt + 1;
    const std::string head = joined.substr(stmt, static_cast<std::size_t>(it->position(0)) - stmt);
    std::string subject_id;
    for (std::sregex_iterator s(head.begin(), head.end(), kSubject), e2; s != e2; ++s)
      subject_id = (*s)[2].str();
    if (subject_id.empty()) continue;
    const std::string subject = canonicalLockName(subject_id, ctx.path, table);
    const std::string site = ctx.path + ":" + std::to_string(line0 + 1);
    std::istringstream in(joined.substr(open, close - open));
    std::string arg;
    while (std::getline(in, arg, ',')) {
      std::string t;
      for (const char c : arg)
        if (c != ' ' && c != '\t' && c != '\n') t += c;
      if (t.empty()) continue;
      if (before) {
        g->edges.push_back(LockEdge{subject, t, site, site, true});
      } else {
        g->edges.push_back(LockEdge{t, subject, site, site, true});
      }
    }
  }
}

bool lockRulesApply(const std::string& rel_path) {
  return startsWith(rel_path, "src/") || startsWith(rel_path, "tools/") ||
         startsWith(rel_path, "bench/");
}

/// Shared by lintFile (standalone: per-file name table, per-file cycle
/// check) and lintTree/buildLockGraph (tree-wide table, merged graph checked
/// once by the caller).
void runLockRules(const FileCtx& ctx, const NameTable* tree_table, LockGraph* graph_out) {
  if (!lockRulesApply(ctx.path)) return;
  NameTable local;
  if (tree_table == nullptr) collectNamedMutexes(ctx.path, ctx.v, &local);
  const NameTable& table = tree_table != nullptr ? *tree_table : local;
  LockGraph g;
  scanLockDiscipline(ctx, table, &g);
  extractDeclaredOrders(ctx, table, &g);
  if (graph_out != nullptr) {
    mergeLockGraph(graph_out, g);
  } else {
    auto findings = checkLockOrder(g);
    ctx.out->insert(ctx.out->end(), std::make_move_iterator(findings.begin()),
                    std::make_move_iterator(findings.end()));
  }
}

// ----------------------------------------------------------- tree reading

/// Reads every lintable file under root/rel_roots, sorted by rel path.
/// Unreadable entries become io-error findings.
std::vector<std::pair<std::string, std::string>> readTree(
    const std::string& root, const std::vector<std::string>& rel_roots,
    std::vector<Finding>* io_errors) {
  namespace fs = std::filesystem;
  std::vector<std::pair<std::string, std::string>> files;
  for (const auto& rel : rel_roots) {
    const fs::path base = fs::path(root) / rel;
    if (!fs::exists(base)) {
      io_errors->push_back(Finding{rel, 0, "io-error", "no such directory under lint root"});
      continue;
    }
    for (const auto& entry : fs::recursive_directory_iterator(base)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".hpp" && ext != ".cpp" && ext != ".h" && ext != ".cc") continue;
      const std::string rel_path = fs::relative(entry.path(), fs::path(root)).generic_string();
      std::ifstream in(entry.path(), std::ios::binary);
      if (!in) {
        io_errors->push_back(Finding{rel_path, 0, "io-error", "unreadable file"});
        continue;
      }
      std::ostringstream buf;
      buf << in.rdbuf();
      files.emplace_back(rel_path, buf.str());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::vector<Finding> lintFileImpl(const std::string& rel_path, const std::string& content,
                                  const NameTable* tree_table, LockGraph* graph_out) {
  std::vector<Finding> out;
  const Views v = preprocess(content);
  FileCtx ctx{rel_path, v, scanSuppressions(v.raw), &out};
  ruleMetricName(ctx);
  ruleNondeterminism(ctx);
  ruleProtoCheck(ctx);
  ruleLayering(ctx);
  ruleRawMutex(ctx);
  ruleGuardedMutex(ctx);
  ruleFrameArena(ctx);
  ruleBoundedState(ctx);
  runLockRules(ctx, tree_table, graph_out);
  return out;
}

void sortFindings(std::vector<Finding>* out) {
  std::sort(out->begin(), out->end(), [](const Finding& a, const Finding& b) {
    if (a.file != b.file) return a.file < b.file;
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
}

}  // namespace

// ----------------------------------------------------------------- public

const std::vector<std::string>& ruleNames() {
  static const std::vector<std::string> kRules = {
      "metric-name", "nondeterminism", "proto-check",   "layering",
      "raw-mutex",   "guarded-mutex",  "frame-arena",   "bounded-state",
      "lock-order",  "blocking-under-lock"};
  return kRules;
}

bool validMetricName(const std::string& literal, std::string* why) {
  const auto fail = [&](std::string reason) {
    if (why != nullptr) *why = std::move(reason);
    return false;
  };
  if (literal.empty()) return fail("empty name");
  for (const char c : literal) {
    if (!((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_' || c == '.')) {
      return fail(std::string("character '") + c + "' outside [a-z0-9_.]");
    }
  }
  // Leading/trailing dots mark concatenation fragments ("sim.proc.",
  // ".queue_depth_avg"); the surrounding pieces carry the rest of the name.
  const bool anchored = literal.front() != '.';
  std::size_t b = 0;
  std::size_t e = literal.size();
  while (b < e && literal[b] == '.') ++b;
  while (e > b && literal[e - 1] == '.') --e;
  const std::string core = literal.substr(b, e - b);
  if (core.empty()) return true;  // pure "." separator
  std::vector<std::string> segments;
  std::string seg;
  std::istringstream in(core);
  while (std::getline(in, seg, '.')) segments.push_back(seg);
  for (const auto& s : segments) {
    if (s.empty()) return fail("empty path segment (\"..\")");
    if (s.front() == '_') return fail("segment \"" + s + "\" starts with '_'");
  }
  if (anchored && metricDomains().count(segments.front()) == 0) {
    return fail("unknown domain \"" + segments.front() +
                "\" (expected sim/sweep/engine/chaos/bench/net/sched/rt)");
  }
  return true;
}

std::vector<Finding> lintFile(const std::string& rel_path, const std::string& content) {
  return lintFileImpl(rel_path, content, nullptr, nullptr);
}

std::vector<Finding> lintTree(const std::string& root,
                              const std::vector<std::string>& rel_roots) {
  std::vector<Finding> out;
  const auto files = readTree(root, rel_roots, &out);

  // Pass 1: tree-wide named-mutex table, so a .cpp acquiring a lock its
  // header declares resolves to the declared canonical name.
  NameTable table;
  for (const auto& [rel_path, content] : files)
    collectNamedMutexes(rel_path, preprocess(content), &table);

  // Pass 2: per-file rules; lock edges accumulate into one global graph,
  // checked once so a cross-file inversion is a single finding with the
  // full witness chain.
  LockGraph graph;
  for (const auto& [rel_path, content] : files) {
    auto findings = lintFileImpl(rel_path, content, &table, &graph);
    out.insert(out.end(), std::make_move_iterator(findings.begin()),
               std::make_move_iterator(findings.end()));
  }
  auto order = checkLockOrder(graph);
  out.insert(out.end(), std::make_move_iterator(order.begin()),
             std::make_move_iterator(order.end()));

  // Satellite direction of metric-name: documented names must still exist.
  const std::filesystem::path doc = std::filesystem::path(root) / "docs" / "OBSERVABILITY.md";
  std::ifstream doc_in(doc, std::ios::binary);
  if (doc_in) {
    std::ostringstream buf;
    buf << doc_in.rdbuf();
    std::set<std::string> vocab;
    for (const auto& [rel_path, content] : files) addMetricVocabulary(content, &vocab);
    auto stale = checkMetricDocs("docs/OBSERVABILITY.md", buf.str(), vocab);
    out.insert(out.end(), std::make_move_iterator(stale.begin()),
               std::make_move_iterator(stale.end()));
  }

  sortFindings(&out);
  return out;
}

LockGraph extractLockEdges(const std::string& rel_path, const std::string& content) {
  LockGraph g;
  if (!lockRulesApply(rel_path)) return g;
  std::vector<Finding> sink;  // blocking-under-lock findings, not this API's output
  const Views v = preprocess(content);
  FileCtx ctx{rel_path, v, scanSuppressions(v.raw), &sink};
  NameTable local;
  collectNamedMutexes(rel_path, v, &local);
  scanLockDiscipline(ctx, local, &g);
  extractDeclaredOrders(ctx, local, &g);
  return g;
}

void mergeLockGraph(LockGraph* a, const LockGraph& b) {
  std::set<std::pair<std::string, std::string>> have;
  for (const auto& e : a->edges) have.emplace(e.from, e.to);
  for (const auto& e : b.edges)
    if (have.emplace(e.from, e.to).second) a->edges.push_back(e);
}

std::vector<Finding> checkLockOrder(const LockGraph& graph) {
  std::vector<Finding> out;
  const auto findingAt = [&](const std::string& site, std::string message) {
    const std::size_t colon = site.find_last_of(':');
    Finding f;
    f.file = site.substr(0, colon);
    f.line = colon == std::string::npos ? 0 : std::atoi(site.c_str() + colon + 1);
    f.rule = "lock-order";
    f.message = std::move(message);
    out.push_back(std::move(f));
  };
  const auto describe = [](const LockEdge& e) {
    if (e.declared)
      return e.from + " before " + e.to + " declared at " + e.to_site;
    return e.to + " acquired at " + e.to_site + " while holding " + e.from + " (acquired at " +
           e.from_site + ")";
  };

  std::map<std::string, std::vector<const LockEdge*>> adj;
  for (const auto& e : graph.edges) {
    if (e.from == e.to) {
      findingAt(e.to_site, "nested acquisition of '" + e.from +
                               "': an instance is already held (acquired at " + e.from_site +
                               ") — two instances of one lock class have no defined order; "
                               "restructure or declare the order explicitly");
    } else {
      adj[e.from].push_back(&e);
    }
  }

  // BFS edge path from->to; empty when unreachable.
  const auto path = [&](const std::string& from,
                        const std::string& to) -> std::vector<const LockEdge*> {
    std::map<std::string, const LockEdge*> via;
    std::vector<std::string> queue{from};
    via[from] = nullptr;
    for (std::size_t i = 0; i < queue.size(); ++i) {
      const auto it = adj.find(queue[i]);
      if (it == adj.end()) continue;
      for (const LockEdge* e : it->second) {
        if (via.emplace(e->to, e).second) queue.push_back(e->to);
      }
    }
    std::vector<const LockEdge*> chain;
    if (via.find(to) == via.end()) return chain;
    for (std::string cur = to; cur != from; cur = via[cur]->from) chain.push_back(via[cur]);
    std::reverse(chain.begin(), chain.end());
    return chain;
  };

  // Each cycle is reported once (keyed by its node set), witnessed by the
  // edge that closes it plus the return path — every hop file:line'd.
  std::set<std::string> reported;
  for (const auto& e : graph.edges) {
    if (e.from == e.to) continue;
    const auto back = path(e.to, e.from);
    if (back.empty()) continue;
    std::set<std::string> nodes{e.from, e.to};
    for (const LockEdge* b : back) nodes.insert(b->to);
    std::string key;
    for (const auto& n : nodes) key += n + "|";
    if (!reported.insert(key).second) continue;
    std::string cycle = e.from + " -> " + e.to;
    for (const LockEdge* b : back) cycle += " -> " + b->to;
    std::string message = "lock-order cycle (" + cycle + "); witness: " + describe(e);
    for (const LockEdge* b : back) message += "; " + describe(*b);
    findingAt(e.to_site, std::move(message));
  }
  sortFindings(&out);
  return out;
}

LockGraph buildLockGraph(const std::string& root, const std::vector<std::string>& rel_roots) {
  std::vector<Finding> sink;
  const auto files = readTree(root, rel_roots, &sink);
  NameTable table;
  for (const auto& [rel_path, content] : files)
    collectNamedMutexes(rel_path, preprocess(content), &table);
  LockGraph graph;
  for (const auto& [rel_path, content] : files) {
    std::vector<Finding> per_file_sink;
    const Views v = preprocess(content);
    FileCtx ctx{rel_path, v, scanSuppressions(v.raw), &per_file_sink};
    if (!lockRulesApply(rel_path)) continue;
    LockGraph g;
    scanLockDiscipline(ctx, table, &g);
    extractDeclaredOrders(ctx, table, &g);
    mergeLockGraph(&graph, g);
  }
  return graph;
}

void writeLockGraphDot(std::FILE* out, const LockGraph& graph) {
  std::fprintf(out, "digraph lock_order {\n  rankdir=LR;\n");
  for (const auto& e : graph.edges) {
    std::fprintf(out, "  \"%s\" -> \"%s\" [label=\"%s\"%s];\n", e.from.c_str(), e.to.c_str(),
                 e.to_site.c_str(), e.declared ? ", style=dashed" : "");
  }
  std::fprintf(out, "}\n");
}

void writeLockGraphJson(std::FILE* out, const LockGraph& graph) {
  std::fprintf(out, "{\n  \"edges\": [\n");
  for (std::size_t i = 0; i < graph.edges.size(); ++i) {
    const auto& e = graph.edges[i];
    std::fprintf(out,
                 "    {\"from\": \"%s\", \"to\": \"%s\", \"from_site\": \"%s\", "
                 "\"to_site\": \"%s\", \"declared\": %s}%s\n",
                 obs::jsonEscape(e.from).c_str(), obs::jsonEscape(e.to).c_str(),
                 obs::jsonEscape(e.from_site).c_str(), obs::jsonEscape(e.to_site).c_str(),
                 e.declared ? "true" : "false", i + 1 < graph.edges.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
}

void addMetricVocabulary(const std::string& content, std::set<std::string>* vocab) {
  static const std::regex kLiteral(R"re("([^"]*)")re");
  const Views v = preprocess(content);
  for (const auto& line : v.text) {
    for (std::sregex_iterator it(line.begin(), line.end(), kLiteral), end; it != end; ++it) {
      const std::string literal = (*it)[1].str();
      if (literal.empty()) continue;
      vocab->insert(literal);
      std::istringstream in(literal);
      std::string seg;
      while (std::getline(in, seg, '.'))
        if (!seg.empty()) vocab->insert(seg);
    }
  }
}

std::vector<Finding> checkMetricDocs(const std::string& doc_rel_path,
                                     const std::string& doc_content,
                                     const std::set<std::string>& vocab) {
  std::vector<Finding> out;
  std::vector<std::string> lines;
  {
    std::string line;
    std::istringstream in(doc_content);
    while (std::getline(in, line)) lines.push_back(line);
  }
  const Suppressions supp = scanSuppressions(lines);

  const auto isNameChar = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_' || c == '.' ||
           c == '<' || c == '>' || c == '*';
  };
  // Expand "{a,b}" alternation groups into concrete names.
  const auto expand = [](const std::string& name) {
    std::vector<std::string> done{""};
    for (std::size_t i = 0; i < name.size();) {
      if (name[i] == '{') {
        const std::size_t close = name.find('}', i);
        if (close == std::string::npos) return std::vector<std::string>{};
        std::vector<std::string> alts;
        std::istringstream in(name.substr(i + 1, close - i - 1));
        std::string alt;
        while (std::getline(in, alt, ',')) alts.push_back(alt);
        std::vector<std::string> next;
        for (const auto& prefix : done)
          for (const auto& alt : alts) next.push_back(prefix + alt);
        done = std::move(next);
        i = close + 1;
      } else {
        for (auto& prefix : done) prefix += name[i];
        ++i;
      }
    }
    return done;
  };
  const auto segmentKnown = [&](const std::string& seg) {
    if (seg.empty()) return true;  // ".." artifacts of prose — not a name issue
    if (seg.front() == '<' || seg.find('*') != std::string::npos) return true;  // placeholder
    if (seg.find_first_not_of("0123456789") == std::string::npos) return true;  // index
    return vocab.count(seg) != 0;
  };

  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    for (std::size_t c = 0; c < line.size();) {
      if (!((line[c] >= 'a' && line[c] <= 'z'))) {
        ++c;
        continue;
      }
      if (c > 0 && (isWordChar(line[c - 1]) || line[c - 1] == '.')) {
        while (c < line.size() && isNameChar(line[c])) ++c;
        continue;
      }
      // Candidate token: name chars, with {...} groups consumed whole.
      std::size_t e = c;
      while (e < line.size()) {
        if (isNameChar(line[e])) {
          ++e;
        } else if (line[e] == '{') {
          const std::size_t close = line.find('}', e);
          if (close == std::string::npos) break;
          e = close + 1;
        } else {
          break;
        }
      }
      std::string token = line.substr(c, e - c);
      c = e;
      while (!token.empty() && (token.back() == '.' || token.back() == '*')) {
        if (token.back() == '*' && token.size() >= 2 && token[token.size() - 2] == '.') break;
        token.pop_back();  // sentence-final "." / stray "*"
      }
      const std::size_t dot = token.find('.');
      if (dot == std::string::npos) continue;
      if (metricDomains().count(token.substr(0, dot)) == 0) continue;
      for (const std::string& name : expand(token)) {
        std::string bad;
        std::istringstream in(name);
        std::string seg;
        while (std::getline(in, seg, '.')) {
          if (!segmentKnown(seg)) {
            bad = seg;
            break;
          }
        }
        if (bad.empty()) continue;
        if (supp.allows(static_cast<int>(i), "metric-name")) continue;
        out.push_back(Finding{
            doc_rel_path, static_cast<int>(i) + 1, "metric-name",
            "documented metric \"" + name + "\" looks stale: segment \"" + bad +
                "\" appears in no string literal anywhere in the tree — either the metric was "
                "renamed/removed (update the doc) or it is documented ahead of registration"});
      }
    }
  }
  sortFindings(&out);
  return out;
}

void writeFindingsJson(std::FILE* out, const std::vector<Finding>& findings) {
  std::fprintf(out, "[\n");
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    std::fprintf(out, "  {\"file\": \"%s\", \"line\": %d, \"rule\": \"%s\", \"message\": \"%s\"}%s\n",
                 obs::jsonEscape(f.file).c_str(), f.line, obs::jsonEscape(f.rule).c_str(),
                 obs::jsonEscape(f.message).c_str(), i + 1 < findings.size() ? "," : "");
  }
  std::fprintf(out, "]\n");
}

}  // namespace affinity::lint
