#include "mpath/util/rng.hpp"

#include <condition_variable>
#include <mutex>
#include <system_error>
#include <thread>
#include <utility>  // std::swap

#include "mpath/util/log.hpp"

namespace mpath::util {

/// The process's one filler thread. Streams queue on it when their spare
/// batch wants filling; it fills them one at a time, in request order. The
/// queue is intrusive (JitterStream::queued_next_), so a request allocates
/// nothing. Every stream that has left its young phase shares ownership,
/// as does instance(), so the thread is joined only when no stream can
/// reach it any more: at exit, or after the last such stream.
class JitterFiller {
 public:
  /// The process's filler, started by the first call; null if the thread
  /// could not be started, and streams then keep filling their own batches.
  static std::shared_ptr<JitterFiller> instance();

  JitterFiller() : thread_([this] { run(); }) {}
  JitterFiller(const JitterFiller&) = delete;
  JitterFiller& operator=(const JitterFiller&) = delete;
  ~JitterFiller() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    work_.notify_one();
    thread_.join();
  }

  /// Queue `s` to have its spare filled. The caller owns the spare and the
  /// engine until the filler claims them.
  void request(JitterStream& s) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      s.spare_state_.store(JitterStream::Spare::kQueued,
                           std::memory_order_release);
      s.queued_next_ = nullptr;
      (tail_ != nullptr ? tail_->queued_next_ : head_) = &s;
      tail_ = &s;
    }
    work_.notify_one();
  }

  /// Take back a request of `s`. True when it was still queued, and the
  /// spare is then the caller's to fill; false when the spare is filled,
  /// after waiting for a fill in flight.
  bool withdraw(JitterStream& s) {
    std::unique_lock<std::mutex> lock(mu_);
    if (s.spare_state_.load(std::memory_order_acquire) ==
        JitterStream::Spare::kQueued) {
      unlink(s);
      s.spare_state_.store(JitterStream::Spare::kEmpty,
                           std::memory_order_release);
      return true;
    }
    done_.wait(lock, [&s] {
      return s.spare_state_.load(std::memory_order_acquire) !=
             JitterStream::Spare::kFilling;
    });
    return false;
  }

 private:
  void run() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      work_.wait(lock, [this] { return stop_ || head_ != nullptr; });
      // Only the last owner stops the filler, so nothing is queued then.
      if (head_ == nullptr) return;
      JitterStream& s = *head_;
      unlink(s);
      s.spare_state_.store(JitterStream::Spare::kFilling,
                           std::memory_order_release);
      lock.unlock();
      s.fill_spare();  // arithmetic on the stream's own arrays: cannot throw
      lock.lock();
      s.spare_state_.store(JitterStream::Spare::kReady,
                           std::memory_order_release);
      done_.notify_all();
    }
  }

  /// Remove queued `s`; the queue is as long as the streams waiting on it.
  void unlink(JitterStream& s) {
    JitterStream* prev = nullptr;
    JitterStream** link = &head_;
    while (*link != &s) {
      prev = *link;
      link = &prev->queued_next_;
    }
    *link = s.queued_next_;
    if (tail_ == &s) tail_ = prev;
  }

  std::mutex mu_;  // guards everything below, and each queued stream's link
  std::condition_variable work_;  ///< a request was queued, or stop_
  std::condition_variable done_;  ///< a fill finished
  JitterStream* head_ = nullptr;  ///< oldest request
  JitterStream* tail_ = nullptr;  ///< newest request
  bool stop_ = false;
  std::thread thread_;  // last: it runs on the members above
};

std::shared_ptr<JitterFiller> JitterFiller::instance() {
  static const std::shared_ptr<JitterFiller> filler =
      []() -> std::shared_ptr<JitterFiller> {
    try {
      return std::make_shared<JitterFiller>();
    } catch (const std::system_error& e) {
      MPATH_WARN << "JitterStream: no filler thread (" << e.what()
                 << "); streams fill their own batches";
      return nullptr;
    }
  }();
  return filler;
}

namespace {
std::atomic<int> own_fills{0};  ///< live JitterStream::OwnFills
}  // namespace

JitterStream::OwnFills::OwnFills() {
  own_fills.fetch_add(1, std::memory_order_relaxed);
}

JitterStream::OwnFills::~OwnFills() {
  own_fills.fetch_sub(1, std::memory_order_relaxed);
}

bool JitterStream::fills_ahead() {
  return own_fills.load(std::memory_order_relaxed) == 0;
}

JitterStream::~JitterStream() {
  if (filler_ != nullptr) filler_->withdraw(*this);
}

void JitterStream::next_batch() {
  next_ = 0;
  if (filler_ == nullptr) {
    fill(batch_, kBatch);
    size_ = kBatch;
    self_filled_ += kBatch;
    if (self_filled_ >= kSelfDraws && fills_ahead()) {
      filler_ = JitterFiller::instance();
      if (filler_ != nullptr) filler_->request(*this);
    }
    return;
  }
  const Spare spare = spare_state_.load(std::memory_order_acquire);
  if (spare == Spare::kEmpty ||
      (spare != Spare::kReady && filler_->withdraw(*this))) {
    fill_spare();
  }
  std::swap(batch_, spare_);
  size_ = kFillBatch;
  if (fills_ahead()) {
    filler_->request(*this);
  } else {
    spare_state_.store(Spare::kEmpty, std::memory_order_relaxed);
  }
}

void JitterStream::fill(double* out, std::size_t n) {
  // A rejected trial is overwritten by the next one: i advances only on
  // acceptance, without a branch on it.
  std::array<PolarPoint, kBatch> points{};
  for (std::size_t done = 0; done < n; done += kBatch) {
    for (std::size_t i = 0; i < kBatch;) {
      points[i] = polar_point(gen_);
      i += points[i].accepted();
    }
    for (std::size_t i = 0; i < kBatch; ++i) {
      out[done + i] = points[i].factor();
    }
  }
}

}  // namespace mpath::util
