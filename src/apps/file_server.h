// File service (§4.4.5): a client OPENs a file by name through a
// well-known pattern and receives a fresh GETUNIQUEID pattern bound to
// that file — the file descriptor. All further operations use <fs, fd>.
// The server handler only queues operations; the task performs them
// (the paper's scheduling split).
#pragma once

#include <map>
#include <string>

#include "sodal/sodal.h"

namespace soda::apps {

constexpr Pattern kFileServerPattern = kWellKnownBit | 0xF11E;
constexpr Pattern kFileOpenPattern = kWellKnownBit | 0xF110;

// Operation codes carried in the REQUEST argument.
constexpr std::int32_t kFsRead = 1;
constexpr std::int32_t kFsWrite = 2;
constexpr std::int32_t kFsSeek = 3;
constexpr std::int32_t kFsClose = 4;

/// In-memory disk standing in for the PDP-11's drive.
class Disk {
 public:
  Bytes& file(const std::string& name) { return files_[name]; }
  bool exists(const std::string& name) const { return files_.count(name) > 0; }
  std::size_t file_count() const { return files_.size(); }

 private:
  std::map<std::string, Bytes> files_;
};

class FileServer : public sodal::SodalClient {
 public:
  explicit FileServer(Disk* disk, std::size_t op_queue = 64)
      : disk_(disk), ops_(op_queue) {}

  sim::Task on_boot(Mid) override {
    advertise(kFileServerPattern);
    advertise(kFileOpenPattern);
    co_return;
  }

  sim::Task on_entry(HandlerArgs a) override {
    if (a.invoked_pattern == kFileOpenPattern) {
      // OPEN: EXCHANGE of the file name for a descriptor pattern.
      Bytes name_b;
      const Pattern fd = unique_id();
      advertise(fd);
      auto r = co_await accept_current_exchange(0, &name_b, a.put_size,
                                                sodal::encode_u64(fd));
      if (r.status == AcceptStatus::kSuccess) {
        Session s;
        s.name = sodal::to_string(name_b);
        s.cursor = 0;
        sessions_[fd] = s;
        ++opens_;
      } else {
        unadvertise(fd);
      }
      co_return;
    }
    if (a.invoked_pattern == kFileServerPattern) {
      co_await reject_current();  // the locator pattern takes no requests
      co_return;
    }
    // A file-descriptor pattern: queue the operation for the task.
    if (sessions_.count(a.invoked_pattern) == 0) {
      co_await reject_current();
      co_return;
    }
    ops_.enqueue(Op{a.asker, a.arg, a.invoked_pattern, a.put_size,
                    a.get_size});
    work_.notify_all();
    co_return;
  }

  sim::Task on_task() override {
    for (;;) {
      while (ops_.is_empty()) co_await wait_on(work_);
      Op op = ops_.dequeue();
      auto sit = sessions_.find(op.fd);
      if (sit == sessions_.end()) {
        co_await reject(op.from);
        continue;
      }
      Session& s = sit->second;
      Bytes& data = disk_->file(s.name);
      switch (op.code) {
        case kFsRead: {
          const std::size_t avail =
              s.cursor < data.size() ? data.size() - s.cursor : 0;
          const std::size_t n =
              std::min<std::size_t>(op.get_size, avail);
          Bytes chunk(data.begin() + static_cast<std::ptrdiff_t>(s.cursor),
                      data.begin() +
                          static_cast<std::ptrdiff_t>(s.cursor + n));
          // A short final chunk is a normal partial return (§4.1.2).
          auto r = co_await accept_get(op.from, 0, std::move(chunk));
          if (r.status == AcceptStatus::kSuccess) s.cursor += n;
          break;
        }
        case kFsWrite: {
          Bytes incoming;
          auto r = co_await accept_put(op.from, 0, &incoming, op.put_size);
          if (r.status == AcceptStatus::kSuccess) {
            if (s.cursor + incoming.size() > data.size()) {
              data.resize(s.cursor + incoming.size());
            }
            std::copy(incoming.begin(), incoming.end(),
                      data.begin() + static_cast<std::ptrdiff_t>(s.cursor));
            s.cursor += incoming.size();
          }
          break;
        }
        case kFsSeek: {
          Bytes pos;
          auto r = co_await accept_put(op.from, 0, &pos, op.put_size);
          if (r.status == AcceptStatus::kSuccess) {
            s.cursor = sodal::decode_u32(pos);
          }
          break;
        }
        case kFsClose: {
          co_await accept_signal(op.from, 0);
          unadvertise(op.fd);
          sessions_.erase(op.fd);
          break;
        }
        default:
          co_await reject(op.from);
      }
    }
  }

  std::size_t opens() const { return opens_; }

 private:
  struct Session {
    std::string name;
    std::size_t cursor = 0;
  };
  struct Op {
    RequesterSignature from;
    std::int32_t code;
    Pattern fd;
    std::uint32_t put_size;
    std::uint32_t get_size;
  };

  Disk* disk_;
  std::map<Pattern, Session> sessions_;
  sodal::Queue<Op> ops_;
  sim::CondVar work_;
  std::size_t opens_ = 0;
};

// ---- client-side protocol helpers (§4.4.5 "client protocol") ----

struct FileHandle {
  ServerSignature sig;  // <fs MID, fd pattern>
  bool valid() const { return sig.pattern != 0; }
};

inline sim::Future<FileHandle> fs_open(sodal::SodalClient& c, Mid fs,
                                       const std::string& name) {
  co_await c.resume_in_context();
  Bytes fd_b;
  auto done = co_await c.b_exchange(ServerSignature{fs, kFileOpenPattern}, 0,
                                    sodal::to_bytes(name), &fd_b, 8);
  if (!done.ok() || fd_b.size() < 8) co_return FileHandle{};
  co_return FileHandle{
      ServerSignature{fs, sodal::decode_u64(fd_b) & kPatternMask}};
}

inline sim::Future<sodal::Completion> fs_read(sodal::SodalClient& c,
                                              const FileHandle& f,
                                              Bytes* into, std::uint32_t n) {
  return c.b_get(f.sig, kFsRead, into, n);
}
inline sim::Future<sodal::Completion> fs_write(sodal::SodalClient& c,
                                               const FileHandle& f,
                                               Bytes data) {
  return c.b_put(f.sig, kFsWrite, std::move(data));
}
inline sim::Future<sodal::Completion> fs_seek(sodal::SodalClient& c,
                                              const FileHandle& f,
                                              std::uint32_t pos) {
  return c.b_put(f.sig, kFsSeek, sodal::encode_u32(pos));
}
inline sim::Future<sodal::Completion> fs_close(sodal::SodalClient& c,
                                               const FileHandle& f) {
  return c.b_signal(f.sig, kFsClose);
}

}  // namespace soda::apps
