#include "obs/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "util/axis.hpp"
#include "util/check.hpp"

namespace repseq::obs {

std::uint8_t g_cat_mask = 0;

const char* cat_name(Cat c) {
  switch (c) {
    case Cat::Sim:
      return "sim";
    case Cat::Net:
      return "net";
    case Cat::Tmk:
      return "tmk";
    case Cat::Rse:
      return "rse";
  }
  return "?";
}

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

namespace {

/// Prints a numeric arg value: integers exactly, everything else compactly.
void print_value(std::FILE* f, double v) {
  const double r = static_cast<double>(static_cast<std::int64_t>(v));
  if (r == v && v >= -9.0e15 && v <= 9.0e15) {
    std::fprintf(f, "%lld", static_cast<long long>(v));
  } else {
    std::fprintf(f, "%.6g", v);
  }
}

/// JSON string escape for the few dynamic names (fiber names, file paths
/// never land in the output; process/track names are benign identifiers,
/// but escape defensively anyway).
void print_string(std::FILE* f, const char* s) {
  std::fputc('"', f);
  for (const char* p = s; *p != '\0'; ++p) {
    const char c = *p;
    if (c == '"' || c == '\\') {
      std::fputc('\\', f);
      std::fputc(c, f);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::fprintf(f, "\\u%04x", static_cast<unsigned char>(c));
    } else {
      std::fputc(c, f);
    }
  }
  std::fputc('"', f);
}

}  // namespace

void Tracer::configure_from_env() {
  // A silently-misspelled filter would produce a trace that looks fine and
  // misses the layer under study, so it is checked even with tracing off.
  constexpr std::string_view kAccepted = "sim|net|tmk|rse|all, comma-separated";
  const std::uint8_t mask = util::env_or(
      "TRACE_FILTER", kAllCats,
      [&](std::string_view v) {
        std::string bad;
        const auto m = util::parse_mask(v, {"sim", "net", "tmk", "rse"}, &bad);
        if (!m) util::axis_error("REPSEQ_TRACE_FILTER category", bad, kAccepted);
        return m;
      },
      kAccepted);
  configure(util::env_or(
                "TRACE", std::string(),
                [](std::string_view v) { return std::optional<std::string>(v); }, "a path"),
            mask);
}

void Tracer::configure(std::string path, std::uint8_t mask) {
  path_ = std::move(path);
  rings_.clear();
  process_names_.clear();
  next_seq_ = 0;
  slabs_dropped_ = 0;
  g_cat_mask = path_.empty() ? 0 : static_cast<std::uint8_t>(mask & kAllCats);
}

const char* Tracer::intern(const std::string& s) {
  return interned_.insert(s).first->c_str();
}

void Tracer::set_process_name(std::int32_t pid, const std::string& name) {
  process_names_[pid] = name;
}

Tracer::Event& Tracer::push(Cat cat, char ph, sim::SimTime t, std::int32_t pid,
                            const char* track, const char* name,
                            std::initializer_list<Arg> args) {
  Ring& ring = rings_[pid];
  if (ring.slabs.empty() || ring.slabs.back()->size() == kSlabEvents) {
    if (ring.slabs.size() == kMaxSlabsPerProcess) {
      // Ring overflow: evict the oldest slab whole (the write-side nesting
      // repair drops the span ends this orphans) and recycle its storage.
      auto slab = std::move(ring.slabs.front());
      ring.slabs.erase(ring.slabs.begin());
      slab->clear();
      ring.slabs.push_back(std::move(slab));
      ++slabs_dropped_;
    } else {
      auto slab = std::make_unique<std::vector<Event>>();
      slab->reserve(kSlabEvents);
      ring.slabs.push_back(std::move(slab));
    }
  }
  ring.slabs.back()->push_back(Event{});
  Event& e = ring.slabs.back()->back();
  e.ts_ns = t.ns;
  e.seq = next_seq_++;
  e.pid = pid;
  e.ph = ph;
  e.track = track;
  e.name = name;
  e.cat_bit = static_cast<std::uint8_t>(cat);
  e.nargs = 0;
  REPSEQ_CHECK(args.size() <= kMaxArgs,
               std::string("trace event ") + name + " carries more than kMaxArgs arguments");
  for (const Arg& a : args) {
    e.keys[e.nargs] = a.key;
    e.vals[e.nargs] = a.value;
    ++e.nargs;
  }
  return e;
}

void Tracer::begin(Cat cat, sim::SimTime t, std::int32_t pid, const char* track,
                   const char* name, std::initializer_list<Arg> args) {
  push(cat, 'B', t, pid, track, name, args);
}

void Tracer::end(Cat cat, sim::SimTime t, std::int32_t pid, const char* track,
                 std::initializer_list<Arg> args) {
  push(cat, 'E', t, pid, track, nullptr, args);
}

void Tracer::instant(Cat cat, sim::SimTime t, std::int32_t pid, const char* track,
                     const char* name, std::initializer_list<Arg> args) {
  push(cat, 'i', t, pid, track, name, args);
}

void Tracer::counter(Cat cat, sim::SimTime t, std::int32_t pid, const char* name,
                     double value) {
  push(cat, 'C', t, pid, name, name, {Arg{"value", value}});
}

std::size_t Tracer::event_count() const {
  std::size_t n = 0;
  for (const auto& [pid, ring] : rings_) {
    for (const auto& slab : ring.slabs) n += slab->size();
  }
  return n;
}

std::size_t Tracer::write() {
  if (path_.empty()) return 0;

  // Merge every process ring and restore the global record order: events
  // were recorded in (virtual time, seq) order per ring, and seq is global,
  // so a stable sort on (ts, seq) reproduces exactly the order the single
  // simulation thread emitted them in.
  std::vector<const Event*> all;
  all.reserve(event_count());
  for (const auto& [pid, ring] : rings_) {
    for (const auto& slab : ring.slabs) {
      for (const Event& e : *slab) all.push_back(&e);
    }
  }
  std::sort(all.begin(), all.end(), [](const Event* a, const Event* b) {
    return a->ts_ns != b->ts_ns ? a->ts_ns < b->ts_ns : a->seq < b->seq;
  });

  // One pass per (pid, track) repairs the nesting and assigns thread ids.
  // Ring eviction can drop a span's B while keeping its E (drop the orphan
  // E), and an exception can unwind past a span's end (close it at the
  // trace's final instant), so the validator holds unconditionally.  Thread
  // ids follow first appearance among kept events and are emitted as
  // thread_name metadata, ahead of the events, so Perfetto labels the tracks.
  struct Track {
    int tid = -1;                    // -1 until the track's first kept event
    int depth = 0;                   // open spans, while marking orphans
    std::vector<const Event*> open;  // B events awaiting their E, while emitting
  };
  std::map<std::pair<std::int32_t, const char*>, Track> tracks;
  std::map<std::int32_t, int> next_tid;
  std::vector<char> keep(all.size(), 1);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Event& e = *all[i];
    Track& t = tracks[{e.pid, e.track}];
    if (e.ph == 'E' && t.depth == 0) {
      keep[i] = 0;  // orphaned by eviction
      continue;
    }
    if (e.ph == 'B') ++t.depth;
    if (e.ph == 'E') --t.depth;
    if (t.tid < 0) t.tid = next_tid[e.pid]++;
  }

  std::FILE* f = std::fopen(path_.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot open trace file '%s'\n", path_.c_str());
    std::exit(2);
  }
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  bool first = true;
  const auto sep = [&] {
    if (!first) std::fputs(",\n", f);
    first = false;
  };

  for (const auto& [pid, name] : process_names_) {
    sep();
    std::fprintf(f,
                 "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,"
                 "\"args\":{\"name\":",
                 pid);
    print_string(f, name.c_str());
    std::fputs("}}", f);
    std::fprintf(f,
                 ",\n{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":%d,"
                 "\"tid\":0,\"args\":{\"sort_index\":%d}}",
                 pid, pid);
  }

  for (const auto& [key, t] : tracks) {
    if (t.tid < 0) continue;  // only orphans, all dropped
    sep();
    std::fprintf(f,
                 "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":%d,"
                 "\"args\":{\"name\":",
                 key.first, t.tid);
    print_string(f, key.second);
    std::fputs("}}", f);
  }

  std::int64_t last_ts = 0;
  const auto emit = [&](const Event& e, char ph, int tid) {
    sep();
    std::fputs("{\"name\":", f);
    print_string(f, e.name != nullptr ? e.name : "span");
    std::fprintf(f, ",\"cat\":\"%s\",\"ph\":\"%c\",\"ts\":%.3f,\"pid\":%d,\"tid\":%d",
                 cat_name(static_cast<Cat>(e.cat_bit)), ph,
                 static_cast<double>(e.ts_ns) / 1e3, e.pid, tid);
    if (ph == 'i') std::fputs(",\"s\":\"t\"", f);
    if (e.nargs > 0) {
      std::fputs(",\"args\":{", f);
      for (std::uint8_t a = 0; a < e.nargs; ++a) {
        if (a > 0) std::fputc(',', f);
        print_string(f, e.keys[a]);
        std::fputc(':', f);
        print_value(f, e.vals[a]);
      }
      std::fputc('}', f);
    }
    std::fputc('}', f);
  };

  std::size_t written = 0;
  // E events inherit their B's name so the validator can match pairs.
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (!keep[i]) continue;
    const Event& e = *all[i];
    Track& t = tracks[{e.pid, e.track}];
    last_ts = e.ts_ns;
    if (e.ph == 'B') {
      t.open.push_back(&e);
      emit(e, 'B', t.tid);
    } else if (e.ph == 'E') {
      Event closed = e;
      closed.name = t.open.back()->name;
      t.open.pop_back();
      emit(closed, 'E', t.tid);
    } else {
      emit(e, e.ph, t.tid);
    }
    ++written;
  }
  // Close spans an exception (or eviction of the E's slab) left open, at
  // the final timestamp, innermost first.
  for (auto& [key, t] : tracks) {
    while (!t.open.empty()) {
      Event closer = *t.open.back();
      t.open.pop_back();
      closer.ts_ns = last_ts;
      closer.nargs = 0;
      emit(closer, 'E', t.tid);
      ++written;
    }
  }
  std::fputs("\n]}\n", f);
  std::fclose(f);

  for (auto& [pid, ring] : rings_) ring.slabs.clear();
  rings_.clear();
  return written;
}

}  // namespace repseq::obs
