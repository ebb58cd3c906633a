// A hierarchical name service (§6.14): SODA deliberately keeps kernel
// naming to exact fixed-length patterns; "more complex naming strategies
// (such as name hierarchies or name retrieval within a given environment)
// can be provided by a name server client." This is that client: a
// directory tree of "/"-separated paths bound to <MID, PATTERN>
// signatures, with bind/resolve/list/unbind operations.
//
// Wire protocol on the well-known pattern (argument = opcode):
//   1 BIND    PUT  "path\0" + 12-byte signature
//   2 RESOLVE PUT  "path"            (stage 1 of lookup)
//   3 FETCH   GET  12-byte signature (stage 2; REJECTed when unbound)
//   4 LIST    PUT  "path"            (stage 1 of listing)
//   5 LISTGET GET  "child1\nchild2\n..." (stage 2)
//   6 UNBIND  PUT  "path"
// Two-stage lookups follow the RPC discipline (§4.2.2): SODA cannot
// inspect the first buffer before sending the second in one ACCEPT.
#pragma once

#include <map>
#include <set>
#include <string>
#include <unordered_map>

#include "sodal/blocking.h"
#include "sodal/util.h"

namespace soda::sodal {

constexpr Pattern kNameServerPattern = kWellKnownBit | 0x4A3E;

class NameServer : public SodalClient {
 public:
  /// `indexed` (the default) keeps bindings in a hash table with a
  /// refcounted per-directory child index, so exact operations are O(1)
  /// and LIST touches only the listed directory. `indexed = false` keeps
  /// the original flat map whose LIST scans every binding — retained so
  /// the scaling bench can measure the difference.
  explicit NameServer(Pattern pattern = kNameServerPattern,
                      bool indexed = true)
      : pattern_(pattern), indexed_(indexed) {}

  sim::Task on_boot(Mid) override {
    advertise(pattern_);
    co_return;
  }

  sim::Task on_entry(HandlerArgs a) override {
    if (a.invoked_pattern != pattern_) co_return;
    switch (a.arg) {
      case 1: {  // BIND
        Bytes payload;
        auto r = co_await accept_current_put(0, &payload, a.put_size);
        if (r.status != AcceptStatus::kSuccess || payload.size() < 13) break;
        const std::string path = to_string(
            Bytes(payload.begin(), payload.end() - 12));
        Bytes sig(payload.end() - 12, payload.end());
        bind_path(normalize(path), std::move(sig));
        break;
      }
      case 2: {  // RESOLVE (stage 1)
        Bytes path;
        auto r = co_await accept_current_put(0, &path, a.put_size);
        if (r.status == AcceptStatus::kSuccess) {
          staged_[a.asker.mid] = normalize(to_string(path));
        }
        break;
      }
      case 3: {  // FETCH (stage 2)
        auto sit = staged_.find(a.asker.mid);
        if (sit == staged_.end()) {
          co_await reject_current();
          break;
        }
        auto bit = bindings_.find(sit->second);
        staged_.erase(sit);
        if (bit == bindings_.end()) {
          co_await reject_current();
          break;
        }
        Bytes sig = bit->second;
        co_await accept_current_get(0, std::move(sig));
        break;
      }
      case 4: {  // LIST (stage 1)
        Bytes path;
        auto r = co_await accept_current_put(0, &path, a.put_size);
        if (r.status == AcceptStatus::kSuccess) {
          staged_[a.asker.mid] = normalize(to_string(path));
        }
        break;
      }
      case 5: {  // LISTGET (stage 2)
        auto sit = staged_.find(a.asker.mid);
        if (sit == staged_.end()) {
          co_await reject_current();
          break;
        }
        const std::string dir = sit->second;
        staged_.erase(sit);
        std::set<std::string> children;
        if (indexed_) {
          auto cit = children_.find(dir);
          if (cit != children_.end()) {
            for (const auto& [name, refs] : cit->second) {
              children.insert(name);
            }
          }
        } else {
          const std::string prefix = dir.empty() ? "" : dir + "/";
          for (const auto& [path, sig] : bindings_) {
            if (path.rfind(prefix, 0) != 0) continue;
            const std::string rest = path.substr(prefix.size());
            if (rest.empty()) continue;
            children.insert(rest.substr(0, rest.find('/')));
          }
        }
        std::string listing;
        for (const auto& c : children) {
          listing += c;
          listing += '\n';
        }
        co_await accept_current_get(
            static_cast<std::int32_t>(children.size()),
            to_bytes(listing));
        break;
      }
      case 6: {  // UNBIND
        Bytes path;
        auto r = co_await accept_current_put(0, &path, a.put_size);
        if (r.status == AcceptStatus::kSuccess) {
          unbind_path(normalize(to_string(path)));
        }
        break;
      }
      default:
        co_await reject_current();
    }
    co_return;
  }

  std::size_t bindings() const { return bindings_.size(); }

 private:
  static std::string normalize(std::string p) {
    // strip leading/trailing slashes; collapse doubles
    std::string out;
    bool slash = true;
    for (char c : p) {
      if (c == '/') {
        if (!slash) out += '/';
        slash = true;
      } else {
        out += c;
        slash = false;
      }
    }
    if (!out.empty() && out.back() == '/') out.pop_back();
    return out;
  }

  void bind_path(const std::string& path, Bytes sig) {
    auto [it, inserted] = bindings_.try_emplace(path, std::move(sig));
    if (!inserted) {
      it->second = std::move(sig);  // rebind: index refcounts unchanged
      return;
    }
    if (indexed_) index_add(path);
  }

  void unbind_path(const std::string& path) {
    if (bindings_.erase(path) == 0) return;
    if (indexed_) index_remove(path);
  }

  /// Every ancestor directory of `path` gains (or loses) a reference to
  /// the child component below it, so binding "a/b/c" makes "b" listable
  /// under "a" even though "a/b" itself is not bound — the same derived
  /// children the legacy full scan produced.
  void index_add(const std::string& path) {
    std::string dir = path;
    while (!dir.empty()) {
      const auto slash = dir.rfind('/');
      const std::string leaf =
          slash == std::string::npos ? dir : dir.substr(slash + 1);
      dir = slash == std::string::npos ? std::string() : dir.substr(0, slash);
      ++children_[dir][leaf];
    }
  }

  void index_remove(const std::string& path) {
    std::string dir = path;
    while (!dir.empty()) {
      const auto slash = dir.rfind('/');
      const std::string leaf =
          slash == std::string::npos ? dir : dir.substr(slash + 1);
      dir = slash == std::string::npos ? std::string() : dir.substr(0, slash);
      auto cit = children_.find(dir);
      if (cit == children_.end()) continue;
      auto lit = cit->second.find(leaf);
      if (lit == cit->second.end()) continue;
      if (--lit->second == 0) cit->second.erase(lit);
      if (cit->second.empty()) children_.erase(cit);
    }
  }

  Pattern pattern_;
  bool indexed_;
  std::unordered_map<std::string, Bytes> bindings_;
  // directory -> child name -> number of bindings contributing it
  std::map<std::string, std::map<std::string, int>> children_;
  std::map<Mid, std::string> staged_;
};

// ---- client-side helpers ----
//
// Every operation reports through soda::Status / StatusOr, so callers
// branch on one code enum instead of Completion quirks and sentinel
// signatures: kNotFound is "the path is unbound", kCrashed /
// kUnadvertised / kTimedOut are transport-level failures reaching the
// name server itself. A binding whose signature mid is kAnycastMid names
// an anycast pool (sodal/service.h); the 12-byte wire signature carries
// it unchanged.

namespace detail {
inline Bytes ns_bind_payload(const std::string& path, ServerSignature sig) {
  Bytes payload = to_bytes(path);
  Bytes m = encode_u32(static_cast<std::uint32_t>(sig.mid));
  Bytes p = encode_u64(sig.pattern);
  payload.insert(payload.end(), m.begin(), m.end());
  payload.insert(payload.end(), p.begin(), p.end());
  return payload;
}
}  // namespace detail

/// Bind `path` to `sig` at the name server.
inline sim::Future<Status> ns_bind(SodalClient& c, ServerSignature ns,
                                   const std::string& path,
                                   ServerSignature sig) {
  co_await c.resume_in_context();
  co_return to_status(
      co_await c.b_put(ns, 1, detail::ns_bind_payload(path, sig)));
}

/// Remove the binding for `path`, if any.
inline sim::Future<Status> ns_unbind(SodalClient& c, ServerSignature ns,
                                     const std::string& path) {
  co_await c.resume_in_context();
  co_return to_status(co_await c.b_put(ns, 6, to_bytes(path)));
}

/// Resolve a path to a signature (kNotFound when unbound).
inline sim::Future<StatusOr<ServerSignature>> ns_resolve(
    SodalClient& c, ServerSignature ns, const std::string& path) {
  co_await c.resume_in_context();
  Completion done = co_await c.b_put(ns, 2, to_bytes(path));
  if (!done.ok()) co_return to_status(done);
  Bytes sig;
  done = co_await c.b_get(ns, 3, &sig, 12);
  // FETCH rejects exactly when the path is unbound (or unstaged).
  if (done.rejected()) co_return StatusCode::kNotFound;
  if (!done.ok() || sig.size() < 12) co_return to_status(done);
  co_return ServerSignature{static_cast<Mid>(decode_u32(sig, 0)),
                            decode_u64(sig, 4) & kPatternMask};
}

/// List the immediate children of a directory path.
inline sim::Future<StatusOr<std::vector<std::string>>> ns_list(
    SodalClient& c, ServerSignature ns, const std::string& path) {
  co_await c.resume_in_context();
  Completion done = co_await c.b_put(ns, 4, to_bytes(path));
  if (!done.ok()) co_return to_status(done);
  Bytes listing;
  done = co_await c.b_get(ns, 5, &listing, 2000);
  if (!done.ok()) co_return to_status(done);
  std::vector<std::string> names;
  std::string cur;
  for (auto b : listing) {
    const char ch = static_cast<char>(std::to_integer<unsigned char>(b));
    if (ch == '\n') {
      if (!cur.empty()) names.push_back(cur);
      cur.clear();
    } else {
      cur += ch;
    }
  }
  co_return names;
}

}  // namespace soda::sodal
