//===--- Server.cpp - The wdm daemon --------------------------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "api/Analyzer.h"
#include "api/JobScheduler.h"
#include "api/Report.h"
#include "obs/Prometheus.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"
#include "support/BuildInfo.h"
#include "support/Hash.h"

#include <algorithm>
#include <csignal>
#include <cstring>
#include <fstream>
#include <sstream>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace wdm;
using namespace wdm::serve;
using json::Value;

namespace {

std::string errorBody(const std::string &Message) {
  return Value::object().set("error", Value::string(Message)).dump();
}

bool setNonBlocking(int Fd, bool On) {
  int Flags = ::fcntl(Fd, F_GETFL, 0);
  if (Flags < 0)
    return false;
  Flags = On ? (Flags | O_NONBLOCK) : (Flags & ~O_NONBLOCK);
  return ::fcntl(Fd, F_SETFL, Flags) == 0;
}

} // namespace

Server::Server(ServerOptions O)
    : Opt(std::move(O)),
      Cache(ResultCache::Options{Opt.CacheDir, Opt.CacheCapacity}),
      WarmC(Opt.WarmCapacity) {}

Server::~Server() {
  requestStop();
  wait();
}

std::string Server::jobsDir() const {
  std::string Base = !Opt.StateDir.empty()
                         ? Opt.StateDir
                         : (!Opt.CacheDir.empty() ? Opt.CacheDir
                                                  : std::string(".wdm-serve"));
  return Base + "/jobs";
}

Status Server::start() {
  ListenFd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (ListenFd < 0)
    return Status::error("socket: " + std::string(std::strerror(errno)));
  int One = 1;
  ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));

  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Opt.Port);
  if (::inet_pton(AF_INET, Opt.Host.c_str(), &Addr.sin_addr) != 1) {
    ::close(ListenFd);
    ListenFd = -1;
    return Status::error("serve: invalid host '" + Opt.Host +
                         "' (IPv4 literal required)");
  }
  if (::bind(ListenFd, (sockaddr *)&Addr, sizeof(Addr)) != 0) {
    Status S = Status::error("bind " + Opt.Host + ":" +
                             std::to_string(Opt.Port) + ": " +
                             std::strerror(errno));
    ::close(ListenFd);
    ListenFd = -1;
    return S;
  }
  if (::listen(ListenFd, 64) != 0) {
    Status S = Status::error("listen: " + std::string(std::strerror(errno)));
    ::close(ListenFd);
    ListenFd = -1;
    return S;
  }
  sockaddr_in Bound{};
  socklen_t Len = sizeof(Bound);
  ::getsockname(ListenFd, (sockaddr *)&Bound, &Len);
  BoundPort = ntohs(Bound.sin_port);

  if (::pipe(WakePipe) != 0) {
    ::close(ListenFd);
    ListenFd = -1;
    return Status::error("pipe: " + std::string(std::strerror(errno)));
  }
  setNonBlocking(WakePipe[0], true);
  setNonBlocking(WakePipe[1], true);
  setNonBlocking(ListenFd, true);

  // A resident service always collects metrics — /metrics over a dead
  // registry is useless, and the deterministic Report view strips the
  // section, so the bit-identity contract with `wdm run` holds anyway.
  obs::setEnabled(true);

  unsigned Threads = Opt.Threads
                         ? Opt.Threads
                         : std::min(4u, std::max(
                               1u, std::thread::hardware_concurrency()));
  for (unsigned I = 0; I < Threads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
  Poller = std::thread([this] { pollLoop(); });
  return Status::success();
}

void Server::requestStop() {
  if (Stop.exchange(true))
    return;
  SuiteStop.store(true, std::memory_order_relaxed);
  if (WakePipe[1] >= 0) {
    char B = 1;
    [[maybe_unused]] ssize_t N = ::write(WakePipe[1], &B, 1);
  }
  QueueCv.notify_all();
}

void Server::wait() {
  if (Draining.exchange(true)) {
    // Someone else is already draining; block on completion.
    std::unique_lock<std::mutex> Lock(DoneMu);
    DoneCv.wait(Lock, [this] { return Done; });
    return;
  }
  if (Poller.joinable())
    Poller.join();
  QueueCv.notify_all();
  for (std::thread &T : Workers)
    if (T.joinable())
      T.join();
  Workers.clear();
  // In-flight suites were asked to stop via the scheduler's StopFlag;
  // their logs end with suite_interrupted and stay resume checkpoints.
  {
    std::lock_guard<std::mutex> Lock(JobsMu);
    for (auto &[Id, Run] : Jobs)
      if (Run->T.joinable())
        Run->T.join();
  }
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
  }
  for (int &Fd : WakePipe)
    if (Fd >= 0) {
      ::close(Fd);
      Fd = -1;
    }
  {
    std::lock_guard<std::mutex> Lock(DoneMu);
    Done = true;
  }
  DoneCv.notify_all();
}

//===----------------------------------------------------------------------===//
// serveForever: signal-to-drain for the CLI
//===----------------------------------------------------------------------===//

namespace {
std::atomic<bool> GServeSignal{false};
void onServeSignal(int) { GServeSignal.store(true); }
} // namespace

Status Server::serveForever(const std::function<void(uint16_t)> &OnReady) {
  Status S = start();
  if (!S.ok())
    return S;
  if (OnReady)
    OnReady(BoundPort);

  GServeSignal.store(false);
  struct sigaction SA {};
  SA.sa_handler = onServeSignal; // No SA_RESTART: EINTR wakes the pause.
  sigemptyset(&SA.sa_mask);
  struct sigaction OldInt {}, OldTerm {};
  ::sigaction(SIGINT, &SA, &OldInt);
  ::sigaction(SIGTERM, &SA, &OldTerm);

  while (!GServeSignal.load() && !Stop.load()) {
    struct timespec Ts = {0, 100 * 1000 * 1000};
    ::nanosleep(&Ts, nullptr);
  }
  requestStop();
  wait();

  ::sigaction(SIGINT, &OldInt, nullptr);
  ::sigaction(SIGTERM, &OldTerm, nullptr);
  return Status::success();
}

//===----------------------------------------------------------------------===//
// Poll loop + worker pool
//===----------------------------------------------------------------------===//

void Server::writeAndClose(int Fd, const std::string &Response) {
  setNonBlocking(Fd, false);
  size_t Off = 0;
  while (Off < Response.size()) {
    ssize_t N = ::write(Fd, Response.data() + Off, Response.size() - Off);
    if (N <= 0) {
      if (N < 0 && errno == EINTR)
        continue;
      break;
    }
    Off += (size_t)N;
  }
  obs::count("serve.bytes_out", Off);
  ::shutdown(Fd, SHUT_WR);
  ::close(Fd);
}

void Server::dispatch(int Fd, HttpRequest Req) {
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    Queue.emplace_back(Fd, std::move(Req));
  }
  QueueCv.notify_one();
}

void Server::pollLoop() {
  obs::setThreadTrackName("serve poll");
  std::vector<std::unique_ptr<Conn>> Conns;
  char Buf[64 * 1024];

  while (true) {
    std::vector<pollfd> Pfds;
    Pfds.push_back({WakePipe[0], POLLIN, 0});
    bool Accepting = !Stop.load(std::memory_order_relaxed);
    if (Accepting)
      Pfds.push_back({ListenFd, POLLIN, 0});
    for (const auto &C : Conns)
      Pfds.push_back({C->Fd, POLLIN, 0});

    int Rc = ::poll(Pfds.data(), Pfds.size(), 250);
    if (Rc < 0 && errno != EINTR)
      break;

    if (Stop.load(std::memory_order_relaxed)) {
      // Drain: connections still mid-parse never started a request;
      // close them and let the workers finish what was dispatched.
      for (const auto &C : Conns)
        ::close(C->Fd);
      return;
    }
    if (Rc <= 0)
      continue;

    size_t Idx = 0;
    if (Pfds[Idx].revents & POLLIN) {
      char Drain[16];
      while (::read(WakePipe[0], Drain, sizeof(Drain)) > 0) {
      }
    }
    ++Idx;

    // Connections accepted below have no pollfd in this round; they are
    // polled from the next one.
    const size_t Polled = Conns.size();
    if (Accepting) {
      if (Pfds[Idx].revents & POLLIN) {
        while (true) {
          int Fd = ::accept(ListenFd, nullptr, nullptr);
          if (Fd < 0)
            break;
          if (Conns.size() >= Opt.MaxConnections) {
            obs::count("serve.rejected");
            writeAndClose(Fd, serializeResponse(
                                  503, "application/json",
                                  errorBody("connection limit reached")));
            continue;
          }
          setNonBlocking(Fd, true);
          Conns.push_back(std::make_unique<Conn>(Fd, Opt.Limits));
        }
      }
      ++Idx;
    }

    // Read whatever arrived on each polled connection.
    for (size_t C = 0; C < Polled; ++C, ++Idx) {
      if (!(Pfds[Idx].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      Conn &Cn = *Conns[C];
      bool Close = false;
      while (true) {
        ssize_t N = ::read(Cn.Fd, Buf, sizeof(Buf));
        if (N > 0) {
          obs::count("serve.bytes_in", (uint64_t)N);
          Cn.Parser.feed(Buf, (size_t)N);
          if (Cn.Parser.done() || Cn.Parser.failed())
            break;
          continue;
        }
        if (N < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
          break;
        if (N < 0 && errno == EINTR)
          continue;
        Close = true; // EOF or hard error before a full request.
        break;
      }
      if (Cn.Parser.done()) {
        setNonBlocking(Cn.Fd, false);
        dispatch(Cn.Fd, Cn.Parser.request());
        Conns[C].reset();
      } else if (Cn.Parser.failed()) {
        obs::count("serve.bad_requests");
        writeAndClose(Cn.Fd,
                      serializeResponse(Cn.Parser.errorStatus(),
                                        "application/json",
                                        errorBody(statusReason(
                                            Cn.Parser.errorStatus()))));
        Conns[C].reset();
      } else if (Close) {
        ::close(Cn.Fd);
        Conns[C].reset();
      }
    }
    Conns.erase(std::remove(Conns.begin(), Conns.end(), nullptr),
                Conns.end());
  }
}

void Server::workerLoop() {
  obs::setThreadTrackName("serve worker");
  while (true) {
    std::pair<int, HttpRequest> Item{-1, {}};
    {
      std::unique_lock<std::mutex> Lock(QueueMu);
      QueueCv.wait(Lock, [this] {
        return !Queue.empty() || Stop.load(std::memory_order_relaxed);
      });
      if (Queue.empty()) {
        if (Stop.load(std::memory_order_relaxed))
          return; // Queue drained; daemon is shutting down.
        continue;
      }
      Item = std::move(Queue.front());
      Queue.pop_front();
    }
    InFlight.fetch_add(1, std::memory_order_relaxed);
    std::string Response = handle(Item.second);
    writeAndClose(Item.first, Response);
    InFlight.fetch_sub(1, std::memory_order_relaxed);
  }
}

//===----------------------------------------------------------------------===//
// Routing
//===----------------------------------------------------------------------===//

std::string Server::handle(const HttpRequest &Req) {
  obs::count("serve.requests");
  obs::ScopedSpan Span("request");
  if (obs::tracing())
    Span.setArgs(Value::object()
                     .set("method", Value::string(Req.Method))
                     .set("path", Value::string(Req.path())));

  const std::string Path = Req.path();
  int Status = 200;
  std::string ContentType = "application/json";
  std::string Body;

  if (Path == "/healthz" && Req.Method == "GET") {
    Body = Value::object().set("ok", Value::boolean(true)).dump();
  } else if (Path == "/version" && Req.Method == "GET") {
    Body = support::buildInfoJson().dump();
  } else if (Path == "/metrics" && Req.Method == "GET") {
    ContentType = "text/plain; version=0.0.4; charset=utf-8";
    Body = obs::snapshotPrometheus();
  } else if (Path == "/v1/run") {
    if (Req.Method != "POST") {
      Status = 405;
      Body = errorBody("POST required");
    } else {
      Body = handleRun(Req, Status);
    }
  } else if (Path == "/v1/suite") {
    if (Req.Method != "POST") {
      Status = 405;
      Body = errorBody("POST required");
    } else {
      Body = handleSuite(Req, Status);
    }
  } else if (Path.rfind("/v1/jobs/", 0) == 0 && Req.Method == "GET") {
    Body = handleJob(Path, Status, ContentType);
  } else {
    Status = 404;
    Body = errorBody("no such endpoint: " + Path);
  }
  return serializeResponse(Status, ContentType, Body);
}

std::string Server::handleRun(const HttpRequest &Req, int &Status) {
  std::string Hash;
  std::string CanonText;
  {
    std::lock_guard<std::mutex> L(SpecMemoMu);
    auto It = SpecMemo.find(Req.Body);
    if (It != SpecMemo.end())
      Hash = It->second;
  }
  if (Hash.empty()) {
    Expected<std::string> Canon = canonicalSpecText(Req.Body);
    if (!Canon) {
      Status = 400;
      return errorBody(Canon.error());
    }
    CanonText = Canon.take();
    Hash = fnv1a64Hex(CanonText);
    std::lock_guard<std::mutex> L(SpecMemoMu);
    if (SpecMemo.size() >= 4096)
      SpecMemo.clear();
    SpecMemo.emplace(Req.Body, Hash);
  }

  ResultCache::Lease Lease = Cache.acquire(Hash);
  const bool Cached = Lease.Hit;
  std::string ReportText;
  std::string ReportHash;
  if (Lease.Hit) {
    obs::count("serve.cache_hits");
    if (!Lease.CachedHash.empty()) {
      // Hot path: the entry carries its deterministic-view hash, so
      // the envelope is spliced from stored bytes — no JSON parse, no
      // deterministic-view rebuild. The splice must stay byte-identical
      // to the Value::dump() envelope below (": " after keys, ", "
      // separators); report text dumps are serialize-after-parse fixed
      // points, so embedding the stored text verbatim matches re-dump.
      std::string Rep = std::move(Lease.CachedJson);
      while (!Rep.empty() &&
             (Rep.back() == '\n' || Rep.back() == '\r' || Rep.back() == ' '))
        Rep.pop_back();
      Status = 200;
      return "{\"cached\": true, \"spec_hash\": \"" + Hash +
             "\", \"report_hash\": \"" + Lease.CachedHash +
             "\", \"report\": " + Rep + "}";
    }
    ReportText = std::move(Lease.CachedJson);
  } else {
    obs::count("serve.cache_misses");
    // A memo hit skipped canonicalization; the miss path needs the
    // canonical text after all (and it cannot fail — the memo only
    // remembers bodies that canonicalized once already).
    if (CanonText.empty()) {
      Expected<std::string> Canon = canonicalSpecText(Req.Body);
      if (!Canon) {
        Cache.abandon(Hash);
        Status = 400;
        return errorBody(Canon.error());
      }
      CanonText = Canon.take();
    }
    Expected<api::AnalysisSpec> Spec = api::AnalysisSpec::parse(CanonText);
    if (!Spec) {
      Cache.abandon(Hash);
      Status = 400;
      return errorBody(Spec.error());
    }
    api::Analyzer A(Spec.take());
    if (Opt.Warm)
      A.setWarmCache(&WarmC);
    Expected<api::Report> R = A.run();
    if (!R) {
      Cache.abandon(Hash);
      Status = 500;
      return errorBody(R.error());
    }
    ReportText = R->toJsonText();
  }

  Expected<Value> RepDoc = Value::parse(ReportText);
  if (!RepDoc) {
    if (!Cached)
      Cache.abandon(Hash);
    Status = 500;
    return errorBody("stored report unparseable: " + RepDoc.error());
  }
  // The report hash is over the deterministic view — byte-identical for
  // a cold run, a cache hit, a warm run, and `wdm run` on the same spec.
  ReportHash = fnv1a64Hex(api::deterministicReportJson(*RepDoc).dump());
  if (!Cached)
    Cache.fulfill(Hash, ReportText, ReportHash);
  Status = 200;
  return Value::object()
      .set("cached", Value::boolean(Cached))
      .set("spec_hash", Value::string(Hash))
      .set("report_hash", Value::string(ReportHash))
      .set("report", std::move(*RepDoc))
      .dump();
}

std::string Server::handleSuite(const HttpRequest &Req, int &Status) {
  Expected<api::SuiteSpec> Suite = api::SuiteSpec::parse(Req.Body);
  if (!Suite) {
    Status = 400;
    return errorBody(Suite.error());
  }
  if (Stop.load(std::memory_order_relaxed)) {
    Status = 503;
    return errorBody("draining");
  }

  std::string Dir = jobsDir();
  {
    std::string Base = Dir.substr(0, Dir.rfind('/'));
    ::mkdir(Base.c_str(), 0755);
    ::mkdir(Dir.c_str(), 0755);
  }

  auto Run = std::make_shared<SuiteRun>();
  {
    std::lock_guard<std::mutex> Lock(JobsMu);
    Run->Id = fnv1a64Hex(Req.Body + "#" + std::to_string(++JobSeq));
    Jobs[Run->Id] = Run;
  }
  Run->EventLog = Dir + "/" + Run->Id + ".ndjson";

  api::SuiteRunOptions SO;
  SO.Mode = api::SuiteMode::InProcess;
  SO.Shards = Opt.SuiteShards;
  SO.EventLog = Run->EventLog;
  SO.StopFlag = &SuiteStop;
  Run->T = std::thread([Run, Suite = Suite.take(), SO]() mutable {
    obs::setThreadTrackName("suite " + Run->Id);
    Expected<api::SuiteReport> R =
        api::JobScheduler::execute(std::move(Suite), std::move(SO));
    if (R) {
      Run->ExitCode = R->exitCode();
      Run->ReportJson = R->toJson();
      Run->State.store(1, std::memory_order_release);
    } else {
      Run->Error = R.error();
      Run->State.store(2, std::memory_order_release);
    }
  });

  Status = 202;
  return Value::object()
      .set("job", Value::string(Run->Id))
      .set("status", Value::string("/v1/jobs/" + Run->Id))
      .set("events", Value::string("/v1/jobs/" + Run->Id + "/events"))
      .dump();
}

std::string Server::handleJob(const std::string &Path, int &Status,
                              std::string &ContentType) {
  std::string Rest = Path.substr(std::string("/v1/jobs/").size());
  bool WantEvents = false;
  if (size_t Slash = Rest.find('/'); Slash != std::string::npos) {
    WantEvents = Rest.substr(Slash) == "/events";
    if (!WantEvents) {
      Status = 404;
      return errorBody("no such endpoint: " + Path);
    }
    Rest = Rest.substr(0, Slash);
  }

  std::shared_ptr<SuiteRun> Run;
  {
    std::lock_guard<std::mutex> Lock(JobsMu);
    auto It = Jobs.find(Rest);
    if (It != Jobs.end())
      Run = It->second;
  }
  if (!Run) {
    Status = 404;
    return errorBody("no such job: " + Rest);
  }

  if (WantEvents) {
    // The NDJSON accumulated so far — the scheduler flushes per event,
    // so a poll loop over this endpoint is a live stream.
    std::ifstream In(Run->EventLog, std::ios::binary);
    std::ostringstream Ss;
    Ss << In.rdbuf();
    ContentType = "application/x-ndjson";
    Status = 200;
    return Ss.str();
  }

  int S = Run->State.load(std::memory_order_acquire);
  Value Doc = Value::object()
                  .set("job", Value::string(Run->Id))
                  .set("state", Value::string(S == 0   ? "running"
                                              : S == 1 ? "done"
                                                       : "failed"))
                  .set("events",
                       Value::string("/v1/jobs/" + Run->Id + "/events"));
  if (S == 1) {
    Doc.set("exit_code", Value::number((int64_t)Run->ExitCode));
    Doc.set("suite", Run->ReportJson);
  } else if (S == 2) {
    Doc.set("error", Value::string(Run->Error));
  }
  Status = 200;
  return Doc.dump();
}
