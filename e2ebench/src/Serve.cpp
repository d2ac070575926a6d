//===--- Serve.cpp - The serve layer's open-loop probe ----------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An in-process `wdm serve` daemon on loopback, driven by one generator
/// thread that releases a seeded Poisson schedule to at most nproc
/// sender threads (so at most nproc connections are in flight). Every
/// request is timed from when it was due, so a stall also charges the
/// requests queued behind it; the generator's own lateness is reported,
/// and a refused, failed or late request counts as failed.
///
/// The mix: repeated bodies (result-cache reads), seed variants of the
/// warmable fig2 boundary / fig1a path specs (warm hits and result-cache
/// writes), and a few non-warmable classifier coverage specs (cold).
/// Every spec pins threads 1, so request workers are the only parallel
/// axis.
///
//===----------------------------------------------------------------------===//

#include "Serve.h"

#include "serve/Http.h"
#include "serve/Server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>

using namespace wdm;

namespace e2e {

namespace {

struct Request {
  double DueS = 0; ///< Offset from the schedule's start.
  std::string Body;
};

struct Reply {
  double FromDueMs = 0;
  double ServiceMs = 0; ///< From the send to the response.
  double LagMs = 0;     ///< How late the generator released it.
  bool Ok = false;
  std::string Body;
};

std::string fig2Boundary(uint64_t Seed) {
  return "{\"task\": \"boundary\", \"module\": {\"builtin\": \"fig2\"}, "
         "\"search\": {\"seed\": " +
         std::to_string(Seed) + ", \"max_evals\": 20000, \"threads\": 1}}";
}

std::string fig1aPath(uint64_t Seed) {
  return "{\"task\": \"path\", \"module\": {\"builtin\": \"fig1a\"}, "
         "\"path\": [{\"branch\": 0, \"taken\": true}, {\"branch\": 1, "
         "\"taken\": false}], \"search\": {\"seed\": " +
         std::to_string(Seed) + ", \"max_evals\": 20000, \"threads\": 1}}";
}

std::string classifierCoverage(uint64_t Seed) {
  return "{\"task\": \"coverage\", \"module\": {\"builtin\": "
         "\"classifier\"}, \"search\": {\"seed\": " +
         std::to_string(Seed) + ", \"max_evals\": 10000, \"threads\": 1}}";
}

/// The repeated bodies: primed at set-up, then pure result-cache reads.
std::vector<std::string> hitBodies(const Options &O) {
  SeedStream S(O.Seed, 0x417);
  std::vector<std::string> B;
  for (unsigned K = 0; K < 4; ++K) {
    B.push_back(fig2Boundary(S.searchSeed()));
    B.push_back(fig1aPath(S.searchSeed()));
  }
  return B;
}

/// One request body of the mix: 60% repeated, 35% warm variants, 5% cold.
std::string drawBody(SeedStream &S, const std::vector<std::string> &Hits) {
  double U = S.uniform();
  if (U < 0.6)
    return Hits[S.next() % Hits.size()];
  if (U < 0.95)
    return (S.next() & 1) ? fig2Boundary(S.searchSeed())
                          : fig1aPath(S.searchSeed());
  return classifierCoverage(S.searchSeed());
}

/// A Poisson schedule of \p Rate requests/s over \p Seconds.
std::vector<Request> schedule(SeedStream &S,
                              const std::vector<std::string> &Hits,
                              double Rate, double Seconds) {
  std::vector<Request> Out;
  double T = 0;
  for (;;) {
    T += -std::log(1.0 - S.uniform()) / Rate;
    if (T >= Seconds)
      break;
    Out.push_back({T, drawBody(S, Hits)});
  }
  return Out;
}

unsigned senders() { return std::max(1u, std::thread::hardware_concurrency()); }

/// A loopback client connection, closed with SO_LINGER 0 (a reset). A run
/// opens tens of thousands of connections; closed gracefully, each would
/// leave a TIME_WAIT socket behind for a minute, which slows every later
/// connect of this run and of the next runs.
class Connection {
public:
  Connection() : Fd(::socket(AF_INET, SOCK_STREAM, 0)) {}
  ~Connection() {
    if (Fd < 0)
      return;
    linger L{1, 0};
    ::setsockopt(Fd, SOL_SOCKET, SO_LINGER, &L, sizeof L);
    ::close(Fd);
  }
  Connection(const Connection &) = delete;
  Connection &operator=(const Connection &) = delete;

  int Fd;
};

/// POST /v1/run with \p Body; the response body when the status is 200.
bool postRun(uint16_t Port, const std::string &Body, std::string &Out) {
  Connection C;
  if (C.Fd < 0)
    return false;
  timeval Tv{30, 0};
  ::setsockopt(C.Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof Tv);
  ::setsockopt(C.Fd, SOL_SOCKET, SO_SNDTIMEO, &Tv, sizeof Tv);
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(C.Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof Addr) != 0)
    return false;
  std::string Req = "POST /v1/run HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                    "Connection: close\r\nContent-Type: application/json\r\n"
                    "Content-Length: " +
                    std::to_string(Body.size()) + "\r\n\r\n" + Body;
  for (size_t Off = 0; Off < Req.size();) {
    ssize_t N = ::write(C.Fd, Req.data() + Off, Req.size() - Off);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Off += static_cast<size_t>(N);
  }
  std::string Raw;
  char Buf[16384];
  for (;;) {
    ssize_t N = ::read(C.Fd, Buf, sizeof Buf);
    if (N < 0 && errno == EINTR)
      continue;
    if (N < 0)
      return false;
    if (N == 0)
      break; // The daemon closes after one response.
    Raw.append(Buf, static_cast<size_t>(N));
  }
  size_t Head = Raw.find("\r\n\r\n");
  if (Raw.rfind("HTTP/1.1 200", 0) != 0 || Head == std::string::npos)
    return false;
  Out = Raw.substr(Head + 4);
  return true;
}

/// Releases \p Sched on time to a pool of senders() connections.
std::vector<Reply> openLoop(uint16_t Port, const std::vector<Request> &Sched,
                            unsigned &InFlightMax) {
  std::vector<Reply> Out(Sched.size());
  std::mutex Mu;
  std::condition_variable Cv;
  std::deque<size_t> Ready;
  bool Done = false;
  std::atomic<unsigned> InFlight{0};
  std::atomic<unsigned> Max{0};
  const Clock::time_point T0 = Clock::now() + std::chrono::milliseconds(2);
  auto DueAt = [&](size_t I) {
    return T0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(Sched[I].DueS));
  };
  auto Ms = [](Clock::duration D) {
    return std::chrono::duration<double, std::milli>(D).count();
  };

  std::vector<std::thread> Pool;
  for (unsigned K = 0; K < senders(); ++K)
    Pool.emplace_back([&] {
      for (;;) {
        size_t I = 0;
        {
          std::unique_lock<std::mutex> L(Mu);
          Cv.wait(L, [&] { return Done || !Ready.empty(); });
          if (Ready.empty())
            return;
          I = Ready.front();
          Ready.pop_front();
        }
        unsigned N = ++InFlight;
        unsigned Seen = Max.load();
        while (N > Seen && !Max.compare_exchange_weak(Seen, N)) {
        }
        Reply &Rep = Out[I];
        Clock::time_point S0 = Clock::now();
        Rep.Ok = postRun(Port, Sched[I].Body, Rep.Body);
        Clock::time_point S1 = Clock::now();
        --InFlight;
        Rep.ServiceMs = Ms(S1 - S0);
        Rep.FromDueMs = Ms(S1 - DueAt(I));
      }
    });

  for (size_t I = 0; I < Sched.size(); ++I) {
    std::this_thread::sleep_until(DueAt(I));
    double Lag = Ms(Clock::now() - DueAt(I));
    {
      std::lock_guard<std::mutex> L(Mu);
      Out[I].LagMs = Lag;
      Ready.push_back(I);
    }
    Cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> L(Mu);
    Done = true;
  }
  Cv.notify_all();
  for (std::thread &T : Pool)
    T.join();
  InFlightMax = std::max(InFlightMax, Max.load());
  return Out;
}

/// Sends every repeated body and one spec of each warmable family once,
/// so the timed phase starts from a resident daemon.
bool prime(uint16_t Port, const std::vector<std::string> &Hits) {
  std::vector<std::string> Bodies = Hits;
  Bodies.push_back(classifierCoverage(7));
  std::string Response;
  for (const std::string &B : Bodies)
    if (!postRun(Port, B, Response))
      return false;
  return true;
}

serve::HttpRequest runRequest(const std::string &Body) {
  serve::HttpRequest Req;
  Req.Method = "POST";
  Req.Target = "/v1/run";
  Req.Body = Body;
  return Req;
}

/// Turns the replies of a fixed-rate pass into units for the oracle and
/// the digest.
std::vector<Unit> unitsOf(const std::vector<Request> &Sched,
                          const std::vector<Reply> &Replies) {
  std::vector<Unit> Units;
  for (size_t I = 0; I < Sched.size(); ++I) {
    Unit U;
    U.SpecText = Sched[I].Body;
    U.Ms = Replies[I].ServiceMs;
    Expected<api::AnalysisSpec> Spec = api::AnalysisSpec::parse(U.SpecText);
    if (Spec)
      U.Spec = Spec.take();
    if (!Replies[I].Ok) {
      U.Error = "request failed";
      Units.push_back(std::move(U));
      continue;
    }
    Expected<json::Value> Env = json::Value::parse(Replies[I].Body);
    const json::Value *Rep = Env ? Env->find("report") : nullptr;
    Expected<api::Report> R =
        Rep ? api::Report::fromJson(*Rep)
            : Expected<api::Report>::error("no report in the envelope");
    U.Ok = R.hasValue();
    if (U.Ok)
      U.R = R.take();
    else
      U.Error = R.error();
    Units.push_back(std::move(U));
  }
  return Units;
}

} // namespace

ServeProbe probeServe(const Options &O, double Seconds) {
  ServeProbe Out;
  const std::vector<std::string> Hits = hitBodies(O);
  SeedStream S(O.Seed, 0x5e7e);
  const std::vector<Request> Sched =
      schedule(S, Hits, FixedRateRps, O.Tiny ? 0.2 : Seconds);

  {
    serve::Server Srv{serve::ServerOptions()};
    if (!Srv.start().ok() || !prime(Srv.port(), Hits)) {
      Out.Problems.push_back("serve: daemon start or priming failed");
      return Out;
    }
    std::vector<Reply> Rs = openLoop(Srv.port(), Sched, Out.InFlightMax);
    std::vector<double> Lags;
    for (const Reply &R : Rs) {
      Lags.push_back(R.LagMs);
      Out.Failed += !R.Ok || R.FromDueMs > LatencyLimitMs;
    }
    Out.LagP99Ms = percentile(Lags, 99);
    Out.Units = unitsOf(Sched, Rs);
  }

  // The same requests through Server::handle on a fresh primed daemon:
  // the service logic without the socket.
  serve::Server Srv{serve::ServerOptions()};
  for (const std::string &B : Hits)
    if (Srv.handle(runRequest(B)).rfind("HTTP/1.1 200", 0) != 0)
      Out.Problems.push_back("serve: handle() priming failed");
  std::vector<double> Ms;
  for (const Request &R : Sched) {
    serve::HttpRequest Req = runRequest(R.Body);
    Clock::time_point T0 = Clock::now();
    Srv.handle(Req);
    Ms.push_back(secondsSince(T0) * 1e3);
  }
  Out.HandleP50Ms = median(Ms);
  return Out;
}

} // namespace e2e
