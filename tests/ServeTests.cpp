//===--- ServeTests.cpp - src/serve/ daemon layer tests -------------------------===//
//
// Part of the wdm project (PLDI 2019 weak-distance minimization repro).
//
// The service bar: the HTTP wire layer parses incrementally and
// enforces its limits; the result cache is content-addressed exactly
// like the suite layer (formatting/limits-invariant), survives disk
// corruption, and single-flights concurrent identical requests; warm
// execution state makes a second request skip resolve/lower/compile
// while staying bit-identical; and the daemon itself — driven both
// in-process over real sockets and as a forked `wdm serve` — honors
// the deterministic-report contract, serves valid Prometheus, and
// drains gracefully on SIGTERM with an in-flight suite.
//
//===----------------------------------------------------------------------===//

#include "api/Analyzer.h"
#include "api/Report.h"
#include "api/Warm.h"
#include "obs/Telemetry.h"
#include "obs/Trace.h"
#include "serve/Client.h"
#include "serve/Http.h"
#include "serve/ResultCache.h"
#include "serve/Server.h"
#include "support/Hash.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <atomic>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <dirent.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace wdm;
using namespace wdm::serve;
using wdm::json::Value;

namespace {

std::string tempDir(const std::string &Stem) {
  std::string D = ::testing::TempDir() + "wdm_serve_" +
                  std::to_string(getpid()) + "_" + Stem;
  ::mkdir(D.c_str(), 0755);
  return D;
}

void writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(Out) << Path;
  Out << Text;
}

std::string readFileText(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// Serve tests flip the global telemetry registry on (Server::start
/// does); leave the process state as found.
struct ObsQuiesce {
  ObsQuiesce() { reset(); }
  ~ObsQuiesce() { reset(); }
  static void reset() {
    obs::setEnabled(false);
    obs::resetMetrics();
    obs::stopTrace();
    obs::clearTrace();
  }
};

const char *Fig2SpecText = R"({
  "task": "boundary",
  "module": {"builtin": "fig2"},
  "search": {"seed": 2019, "max_evals": 20000, "threads": 1, "engine": "vm"}
})";

uint64_t counterIn(const Value &Snapshot, const std::string &Name) {
  if (const Value *Cs = Snapshot.find("counters"))
    if (const Value *C = Cs->find(Name))
      return static_cast<uint64_t>(C->asDouble());
  return 0;
}

/// Parses the serialized response the Server::handle seam returns.
struct ParsedResponse {
  int Status = 0;
  std::string Body;
  std::string ContentType;
};

ParsedResponse parseResponse(const std::string &Raw) {
  ParsedResponse P;
  size_t HeadEnd = Raw.find("\r\n\r\n");
  EXPECT_NE(HeadEnd, std::string::npos) << Raw;
  if (HeadEnd == std::string::npos)
    return P;
  size_t Sp = Raw.find(' ');
  P.Status = std::atoi(Raw.c_str() + Sp + 1);
  size_t Ct = Raw.find("Content-Type: ");
  if (Ct != std::string::npos && Ct < HeadEnd)
    P.ContentType = Raw.substr(Ct + 14, Raw.find("\r\n", Ct) - Ct - 14);
  P.Body = Raw.substr(HeadEnd + 4);
  return P;
}

//===----------------------------------------------------------------------===//
// HttpParser: incremental parsing and limits
//===----------------------------------------------------------------------===//

TEST(HttpParserTest, ParsesPostByteByByte) {
  std::string Raw = "POST /v1/run?x=1 HTTP/1.1\r\n"
                    "Host: localhost\r\n"
                    "Content-Type: application/json\r\n"
                    "Content-Length: 9\r\n"
                    "\r\n"
                    "{\"a\": 1}\n";
  HttpParser P;
  for (char C : Raw)
    P.feed(&C, 1);
  ASSERT_TRUE(P.done());
  const HttpRequest &R = P.request();
  EXPECT_EQ(R.Method, "POST");
  EXPECT_EQ(R.Target, "/v1/run?x=1");
  EXPECT_EQ(R.path(), "/v1/run");
  EXPECT_EQ(R.query(), "x=1");
  EXPECT_EQ(R.Version, "HTTP/1.1");
  EXPECT_EQ(R.header("content-type"), "application/json");
  EXPECT_EQ(R.header("HOST"), "localhost"); // Case-insensitive.
  EXPECT_EQ(R.header("absent"), "");
  EXPECT_EQ(R.Body, "{\"a\": 1}\n");
}

TEST(HttpParserTest, GetWithoutBodyCompletesAtHeaderEnd) {
  std::string Raw = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
  HttpParser P;
  EXPECT_EQ(P.feed(Raw.data(), Raw.size()), HttpParser::State::Done);
  EXPECT_EQ(P.request().Method, "GET");
  EXPECT_TRUE(P.request().Body.empty());
}

TEST(HttpParserTest, MalformedRequestLineIs400) {
  std::string Raw = "NONSENSE\r\n\r\n";
  HttpParser P;
  P.feed(Raw.data(), Raw.size());
  ASSERT_TRUE(P.failed());
  EXPECT_EQ(P.errorStatus(), 400);
}

TEST(HttpParserTest, HeaderLimitIs431) {
  HttpParser::Limits L;
  L.MaxHeaderBytes = 64;
  HttpParser P(L);
  std::string Raw = "GET / HTTP/1.1\r\nX-Big: " + std::string(100, 'a');
  P.feed(Raw.data(), Raw.size());
  ASSERT_TRUE(P.failed());
  EXPECT_EQ(P.errorStatus(), 431);
}

TEST(HttpParserTest, BodyLimitIs413) {
  HttpParser::Limits L;
  L.MaxBodyBytes = 16;
  HttpParser P(L);
  std::string Raw = "POST / HTTP/1.1\r\nContent-Length: 1000\r\n\r\n";
  P.feed(Raw.data(), Raw.size());
  ASSERT_TRUE(P.failed());
  EXPECT_EQ(P.errorStatus(), 413);
}

TEST(HttpParserTest, ChunkedUploadsAre501) {
  std::string Raw =
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
  HttpParser P;
  P.feed(Raw.data(), Raw.size());
  ASSERT_TRUE(P.failed());
  EXPECT_EQ(P.errorStatus(), 501);
}

TEST(HttpParserTest, SerializeResponseFramesBody) {
  std::string R = serializeResponse(404, "application/json", "{}");
  EXPECT_NE(R.find("HTTP/1.1 404 Not Found\r\n"), std::string::npos);
  EXPECT_NE(R.find("Content-Length: 2\r\n"), std::string::npos);
  EXPECT_NE(R.find("Connection: close\r\n"), std::string::npos);
  EXPECT_EQ(R.substr(R.size() - 6), "\r\n\r\n{}");
}

//===----------------------------------------------------------------------===//
// Content addressing: canonicalization invariance
//===----------------------------------------------------------------------===//

TEST(SpecHashTest, FormattingAndMemberOrderInvariant) {
  Expected<std::string> A = specHash(R"({
    "task": "boundary", "module": {"builtin": "fig2"},
    "search": {"seed": 7, "max_evals": 1000}
  })");
  Expected<std::string> B = specHash(
      "{\"search\":{\"max_evals\":1000,\"seed\":7},"
      "\"module\":{\"builtin\":\"fig2\"},\"task\":\"boundary\"}");
  ASSERT_TRUE(A.hasValue()) << A.error();
  ASSERT_TRUE(B.hasValue()) << B.error();
  EXPECT_EQ(*A, *B);
}

TEST(SpecHashTest, LimitsBlockDoesNotChangeIdentity) {
  // PR 9's invariant carried into the cache: supervision policy is not
  // part of job identity, so a spec with a "limits" block hits the
  // entry its unsupervised twin populated.
  Expected<std::string> Bare = specHash(Fig2SpecText);
  std::string WithLimits = Fig2SpecText;
  WithLimits.insert(WithLimits.rfind('}'),
                    ", \"limits\": {\"timeout_sec\": 5, \"retries\": 2}");
  Expected<std::string> Limited = specHash(WithLimits);
  ASSERT_TRUE(Bare.hasValue()) << Bare.error();
  ASSERT_TRUE(Limited.hasValue()) << Limited.error();
  EXPECT_EQ(*Bare, *Limited);
}

TEST(SpecHashTest, BadSpecIsAnError) {
  EXPECT_FALSE(specHash("not json").hasValue());
  EXPECT_FALSE(specHash("[1,2]").hasValue());
  EXPECT_FALSE(specHash("{\"task\": \"nope\"}").hasValue());
}

//===----------------------------------------------------------------------===//
// ResultCache: LRU, disk level, corruption, single-flight
//===----------------------------------------------------------------------===//

TEST(ResultCacheTest, MissThenFulfillThenHit) {
  ResultCache C({"", 8});
  ResultCache::Lease L = C.acquire("aaaa");
  EXPECT_FALSE(L.Hit);
  C.fulfill("aaaa", "{\"r\": 1}");
  ResultCache::Lease L2 = C.acquire("aaaa");
  ASSERT_TRUE(L2.Hit);
  EXPECT_EQ(L2.CachedJson, "{\"r\": 1}");
  EXPECT_EQ(C.stats().Misses, 1u);
  EXPECT_EQ(C.stats().Hits, 1u);
  EXPECT_EQ(C.stats().MemoryHits, 1u);
}

TEST(ResultCacheTest, AbandonedLeaseLeavesNoEntry) {
  ResultCache C({"", 8});
  EXPECT_FALSE(C.acquire("x").Hit);
  C.abandon("x");
  EXPECT_FALSE(C.acquire("x").Hit); // Leads again, not a hit.
  C.abandon("x");
  EXPECT_EQ(C.memorySize(), 0u);
}

TEST(ResultCacheTest, MemoryLruEvictsOldest) {
  ResultCache C({"", 2});
  for (const char *H : {"h1", "h2", "h3"}) {
    EXPECT_FALSE(C.acquire(H).Hit);
    C.fulfill(H, std::string("{\"v\": \"") + H + "\"}");
  }
  EXPECT_EQ(C.memorySize(), 2u);
  EXPECT_GE(C.stats().Evictions, 1u);
  EXPECT_FALSE(C.acquire("h1").Hit); // Evicted (memory-only cache).
  C.abandon("h1");
  EXPECT_TRUE(C.acquire("h3").Hit);
}

TEST(ResultCacheTest, DiskLevelSurvivesRestart) {
  std::string Dir = tempDir("disk");
  {
    ResultCache C({Dir, 8});
    EXPECT_FALSE(C.acquire("00deadbeef001122").Hit);
    C.fulfill("00deadbeef001122", "{\"r\": 42}");
  }
  // A fresh instance (a restarted daemon) finds the entry on disk.
  ResultCache C2({Dir, 8});
  ResultCache::Lease L = C2.acquire("00deadbeef001122");
  ASSERT_TRUE(L.Hit);
  EXPECT_EQ(L.CachedJson, "{\"r\": 42}");
  EXPECT_EQ(C2.stats().DiskHits, 1u);

  uint64_t Entries = 0, Bytes = 0;
  ASSERT_TRUE(ResultCache::diskStats(Dir, Entries, Bytes).ok());
  EXPECT_EQ(Entries, 1u);
  EXPECT_GT(Bytes, 0u);

  uint64_t Removed = 0;
  ASSERT_TRUE(ResultCache::diskClear(Dir, Removed).ok());
  EXPECT_EQ(Removed, 1u);
  ASSERT_TRUE(ResultCache::diskStats(Dir, Entries, Bytes).ok());
  EXPECT_EQ(Entries, 0u);
}

TEST(ResultCacheTest, CorruptDiskEntryIsAMissNotACrash) {
  std::string Dir = tempDir("corrupt");
  ::mkdir((Dir + "/ab").c_str(), 0755);
  writeFile(Dir + "/ab/ab00000000000000.json", "{truncated garbage");
  ResultCache C({Dir, 8});
  ResultCache::Lease L = C.acquire("ab00000000000000");
  EXPECT_FALSE(L.Hit); // Parse failure degrades to a miss.
  C.fulfill("ab00000000000000", "{\"ok\": true}");
  ResultCache C2({Dir, 8});
  ResultCache::Lease L2 = C2.acquire("ab00000000000000");
  ASSERT_TRUE(L2.Hit); // The rewrite healed the entry.
  EXPECT_EQ(L2.CachedJson, "{\"ok\": true}");
}

TEST(ResultCacheTest, DetHashRoundTripsThroughBothLevels) {
  std::string Dir = tempDir("dethash");
  {
    ResultCache C({Dir, 8});
    EXPECT_FALSE(C.acquire("cd00000000000000").Hit);
    C.fulfill("cd00000000000000", "{\"r\": 7}\n", "feedface00000001");
    // Memory level carries the hash...
    ResultCache::Lease L = C.acquire("cd00000000000000");
    ASSERT_TRUE(L.Hit);
    EXPECT_EQ(L.CachedJson, "{\"r\": 7}\n");
    EXPECT_EQ(L.CachedHash, "feedface00000001");
  }
  // ...and so does the disk level, with the report text restored
  // byte-identically (the wrapper is unwrap-on-read).
  ResultCache C2({Dir, 8});
  ResultCache::Lease L2 = C2.acquire("cd00000000000000");
  ASSERT_TRUE(L2.Hit);
  EXPECT_EQ(L2.CachedJson, "{\"r\": 7}\n");
  EXPECT_EQ(L2.CachedHash, "feedface00000001");
  // Entries fulfilled without a hash stay bare and report an empty one.
  EXPECT_FALSE(C2.acquire("ce00000000000000").Hit);
  C2.fulfill("ce00000000000000", "{\"r\": 8}");
  EXPECT_EQ(C2.acquire("ce00000000000000").CachedHash, "");
}

TEST(ResultCacheTest, SingleFlightCoalescesConcurrentMisses) {
  ResultCache C({"", 8});
  std::atomic<int> Leaders{0}, Followers{0};
  std::atomic<bool> LeaderIn{false};

  auto Worker = [&] {
    ResultCache::Lease L = C.acquire("flight");
    if (L.Hit) {
      ++Followers;
      EXPECT_EQ(L.CachedJson, "{\"once\": 1}");
    } else {
      ++Leaders;
      LeaderIn.store(true);
      // Hold the flight open long enough that the others pile up.
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      C.fulfill("flight", "{\"once\": 1}");
    }
  };

  std::vector<std::thread> Ts;
  Ts.emplace_back(Worker);
  while (!LeaderIn.load())
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  for (int I = 0; I < 3; ++I)
    Ts.emplace_back(Worker);
  for (std::thread &T : Ts)
    T.join();

  EXPECT_EQ(Leaders.load(), 1);   // The search would have run once.
  EXPECT_EQ(Followers.load(), 3); // Everyone else waited and hit.
  EXPECT_EQ(C.stats().Hits, 3u);
  EXPECT_EQ(C.stats().Misses, 1u);
}

//===----------------------------------------------------------------------===//
// Warm execution state
//===----------------------------------------------------------------------===//

api::AnalysisSpec fig2Spec(uint64_t Seed) {
  api::AnalysisSpec Spec;
  Spec.Task = api::TaskKind::Boundary;
  Spec.Module = api::ModuleSource::builtin("fig2");
  Spec.Search.Seed = Seed;
  Spec.Search.MaxEvals = 20000;
  Spec.Search.Threads = 1;
  return Spec;
}

TEST(WarmCacheTest, KeyIgnoresVolatileSearchKnobsOnly) {
  api::AnalysisSpec A = fig2Spec(1);
  api::AnalysisSpec B = fig2Spec(999); // Different seed/evals: same key.
  B.Search.MaxEvals = 777;
  B.Search.Starts = 9;
  EXPECT_EQ(api::WarmCache::keyFor(A), api::WarmCache::keyFor(B));
  EXPECT_FALSE(api::WarmCache::keyFor(A).empty());

  api::AnalysisSpec C = fig2Spec(1); // Different engine: different IR.
  C.Search.Engine = "interp";
  EXPECT_NE(api::WarmCache::keyFor(A), api::WarmCache::keyFor(C));

  api::AnalysisSpec D = fig2Spec(1); // Stateful task: never warmed.
  D.Task = api::TaskKind::Overflow;
  D.Module = api::ModuleSource::builtin("bessel");
  EXPECT_TRUE(api::WarmCache::keyFor(D).empty());
}

TEST(WarmCacheTest, WarmRerunIsBitIdenticalAndSkipsLowering) {
  // Boundary and path tasks both park warm state; the path spec also
  // runs the pre-pass, so its plan is reused too.
  api::AnalysisSpec Path = fig2Spec(2019);
  Path.Task = api::TaskKind::Path;
  Path.Path = {{0, true}, {1, true}};
  Path.Search.Prune = "sites";
  for (const api::AnalysisSpec &Spec : {fig2Spec(2019), Path}) {
    SCOPED_TRACE(api::taskKindName(Spec.Task));
    ObsQuiesce Quiesce;
    obs::setEnabled(true);
    api::WarmCache Warm(8);

    api::Analyzer Cold(Spec);
    Cold.setWarmCache(&Warm);
    Expected<api::Report> R1 = Cold.run();
    ASSERT_TRUE(R1.hasValue()) << R1.error();
    EXPECT_FALSE(Cold.lastRunWarm());
    Value AfterCold = obs::snapshotJson();
    EXPECT_GE(counterIn(AfterCold, "vm.module_lowerings"), 1u);

    api::Analyzer WarmRun(Spec);
    WarmRun.setWarmCache(&Warm);
    Expected<api::Report> R2 = WarmRun.run();
    ASSERT_TRUE(R2.hasValue()) << R2.error();
    EXPECT_TRUE(WarmRun.lastRunWarm());
    Value AfterWarm = obs::snapshotJson();

    // The warm request skipped resolve -> verify -> lower entirely.
    EXPECT_EQ(counterIn(AfterWarm, "vm.module_lowerings"),
              counterIn(AfterCold, "vm.module_lowerings"));
    EXPECT_EQ(counterIn(AfterWarm, "analyzer.module_resolutions"),
              counterIn(AfterCold, "analyzer.module_resolutions"));
    EXPECT_GE(counterIn(AfterWarm, "analyzer.warm_hits"), 1u);

    // And stayed bit-identical in the deterministic view.
    EXPECT_EQ(api::deterministicReportJson(R1->toJson()).dump(),
              api::deterministicReportJson(R2->toJson()).dump());

    // A cold Analyzer without the cache agrees too.
    Expected<api::Report> R3 = api::Analyzer::analyze(Spec);
    ASSERT_TRUE(R3.hasValue()) << R3.error();
    EXPECT_EQ(api::deterministicReportJson(R1->toJson()).dump(),
              api::deterministicReportJson(R3->toJson()).dump());
  }
}

TEST(WarmCacheTest, DifferentVolatileKnobsShareOneEntry) {
  ObsQuiesce Quiesce;
  api::WarmCache Warm(8);
  for (uint64_t Seed : {1u, 2u, 3u}) {
    api::Analyzer A(fig2Spec(Seed));
    A.setWarmCache(&Warm);
    Expected<api::Report> R = A.run();
    ASSERT_TRUE(R.hasValue()) << R.error();
  }
  EXPECT_EQ(Warm.size(), 1u); // One module entry served all three.
  EXPECT_EQ(Warm.stats().Hits, 2u);
}

//===----------------------------------------------------------------------===//
// Server::handle — the no-socket routing seam
//===----------------------------------------------------------------------===//

HttpRequest makeReq(const std::string &Method, const std::string &Target,
                    const std::string &Body = "") {
  HttpRequest R;
  R.Method = Method;
  R.Target = Target;
  R.Version = "HTTP/1.1";
  R.Body = Body;
  return R;
}

TEST(ServerHandleTest, HealthVersionAndRouting) {
  ObsQuiesce Quiesce;
  Server S({});
  ParsedResponse H = parseResponse(S.handle(makeReq("GET", "/healthz")));
  EXPECT_EQ(H.Status, 200);
  EXPECT_NE(H.Body.find("\"ok\""), std::string::npos);

  ParsedResponse V = parseResponse(S.handle(makeReq("GET", "/version")));
  EXPECT_EQ(V.Status, 200);
  Expected<Value> VDoc = Value::parse(V.Body);
  ASSERT_TRUE(VDoc.hasValue());
  EXPECT_TRUE(VDoc->find("compiler") != nullptr);

  EXPECT_EQ(parseResponse(S.handle(makeReq("GET", "/nope"))).Status, 404);
  EXPECT_EQ(parseResponse(S.handle(makeReq("GET", "/v1/run"))).Status,
            405);
  EXPECT_EQ(
      parseResponse(S.handle(makeReq("GET", "/v1/jobs/absent"))).Status,
      404);
}

TEST(ServerHandleTest, RunExecutesCachesAndStaysDeterministic) {
  ObsQuiesce Quiesce;
  Server S({});

  ParsedResponse Bad =
      parseResponse(S.handle(makeReq("POST", "/v1/run", "{nope")));
  EXPECT_EQ(Bad.Status, 400);

  ParsedResponse R1 = parseResponse(
      S.handle(makeReq("POST", "/v1/run", Fig2SpecText)));
  ASSERT_EQ(R1.Status, 200);
  Expected<Value> D1 = Value::parse(R1.Body);
  ASSERT_TRUE(D1.hasValue()) << D1.error();
  EXPECT_FALSE(D1->find("cached")->asBool());

  ParsedResponse R2 = parseResponse(
      S.handle(makeReq("POST", "/v1/run", Fig2SpecText)));
  ASSERT_EQ(R2.Status, 200);
  Expected<Value> D2 = Value::parse(R2.Body);
  ASSERT_TRUE(D2.hasValue());
  EXPECT_TRUE(D2->find("cached")->asBool());
  EXPECT_EQ(D1->find("report_hash")->asString(),
            D2->find("report_hash")->asString());
  EXPECT_EQ(D1->find("spec_hash")->asString(),
            D2->find("spec_hash")->asString());
  EXPECT_EQ(api::deterministicReportJson(*D1->find("report")).dump(),
            api::deterministicReportJson(*D2->find("report")).dump());

  // The hit envelope is spliced from stored bytes (no re-parse on the
  // hot path) — it must still be byte-identical to the cold envelope
  // apart from the cached flag.
  std::string ColdAsHit = R1.Body;
  const std::string ColdFlag = "\"cached\": false";
  size_t FlagAt = ColdAsHit.find(ColdFlag);
  ASSERT_NE(FlagAt, std::string::npos);
  ColdAsHit.replace(FlagAt, ColdFlag.size(), "\"cached\": true");
  EXPECT_EQ(R2.Body, ColdAsHit);

  // The served report is bit-identical (deterministic view) to a direct
  // Analyzer run of the same spec — what `wdm run` executes.
  Expected<api::AnalysisSpec> Spec = api::AnalysisSpec::parse(Fig2SpecText);
  ASSERT_TRUE(Spec.hasValue());
  Expected<api::Report> Direct = api::Analyzer::analyze(*Spec);
  ASSERT_TRUE(Direct.hasValue());
  EXPECT_EQ(api::deterministicReportJson(*D1->find("report")).dump(),
            api::deterministicReportJson(Direct->toJson()).dump());
}

TEST(ServerHandleTest, MetricsEndpointServesPrometheus) {
  ObsQuiesce Quiesce;
  obs::setEnabled(true);
  Server S({});
  parseResponse(S.handle(makeReq("GET", "/healthz")));
  ParsedResponse M = parseResponse(S.handle(makeReq("GET", "/metrics")));
  EXPECT_EQ(M.Status, 200);
  EXPECT_NE(M.ContentType.find("text/plain"), std::string::npos);
  EXPECT_NE(M.Body.find("serve_requests_total"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// The daemon over real sockets (in-process Server + blocking client)
//===----------------------------------------------------------------------===//

/// Every exposition line is a comment or `name[{labels}] value`.
void expectValidPrometheus(const std::string &Text) {
  std::istringstream In(Text);
  std::string Line;
  size_t Samples = 0;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    if (Line.rfind("# HELP ", 0) == 0 || Line.rfind("# TYPE ", 0) == 0)
      continue;
    ASSERT_NE(Line[0], '#') << "unknown comment form: " << Line;
    size_t Sp = Line.rfind(' ');
    ASSERT_NE(Sp, std::string::npos) << Line;
    std::string Name = Line.substr(0, Sp);
    if (size_t Brace = Name.find('{'); Brace != std::string::npos) {
      EXPECT_EQ(Name.back(), '}') << Line;
      Name = Name.substr(0, Brace);
    }
    ASSERT_FALSE(Name.empty()) << Line;
    EXPECT_TRUE(std::isalpha((unsigned char)Name[0]) || Name[0] == '_')
        << Line;
    for (char C : Name)
      EXPECT_TRUE(std::isalnum((unsigned char)C) || C == '_') << Line;
    std::string Val = Line.substr(Sp + 1);
    EXPECT_FALSE(Val.empty()) << Line;
    char *End = nullptr;
    std::strtod(Val.c_str(), &End);
    EXPECT_TRUE(End && (*End == '\0' || Val == "+Inf")) << Line;
    ++Samples;
  }
  EXPECT_GT(Samples, 0u);
}

double prometheusValue(const std::string &Text, const std::string &Name) {
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind(Name + " ", 0) == 0)
      return std::strtod(Line.c_str() + Name.size() + 1, nullptr);
  return -1;
}

TEST(ServeSocketTest, EndToEndRunCacheWarmAndMetrics) {
  ObsQuiesce Quiesce;
  ServerOptions SO;
  SO.CacheDir = tempDir("sock_cache");
  Server S(SO);
  ASSERT_TRUE(S.start().ok());
  ASSERT_NE(S.port(), 0);

  // Cold run.
  Expected<HttpResponse> R1 =
      httpRequest("127.0.0.1", S.port(), "POST", "/v1/run", Fig2SpecText);
  ASSERT_TRUE(R1.hasValue()) << R1.error();
  ASSERT_EQ(R1->Status, 200) << R1->Body;
  Expected<Value> D1 = Value::parse(R1->Body);
  ASSERT_TRUE(D1.hasValue());
  EXPECT_FALSE(D1->find("cached")->asBool());

  Expected<HttpResponse> M1 =
      httpRequest("127.0.0.1", S.port(), "GET", "/metrics");
  ASSERT_TRUE(M1.hasValue()) << M1.error();
  double Lowerings1 = prometheusValue(M1->Body, "vm_module_lowerings_total");
  EXPECT_GE(Lowerings1, 1);

  // Identical spec again: a cache hit — no search, no evals.
  Expected<HttpResponse> R2 =
      httpRequest("127.0.0.1", S.port(), "POST", "/v1/run", Fig2SpecText);
  ASSERT_TRUE(R2.hasValue()) << R2.error();
  Expected<Value> D2 = Value::parse(R2->Body);
  ASSERT_TRUE(D2.hasValue());
  EXPECT_TRUE(D2->find("cached")->asBool());
  EXPECT_EQ(D1->find("report_hash")->asString(),
            D2->find("report_hash")->asString());

  // Same module at a new seed: misses the result cache (new identity)
  // but runs warm — the lowering counter must not move.
  std::string Reseeded = Fig2SpecText;
  size_t SeedPos = Reseeded.find("2019");
  Reseeded.replace(SeedPos, 4, "7777");
  Expected<HttpResponse> R3 =
      httpRequest("127.0.0.1", S.port(), "POST", "/v1/run", Reseeded);
  ASSERT_TRUE(R3.hasValue()) << R3.error();
  Expected<Value> D3 = Value::parse(R3->Body);
  ASSERT_TRUE(D3.hasValue());
  EXPECT_FALSE(D3->find("cached")->asBool());

  Expected<HttpResponse> M2 =
      httpRequest("127.0.0.1", S.port(), "GET", "/metrics");
  ASSERT_TRUE(M2.hasValue()) << M2.error();
  expectValidPrometheus(M2->Body);
  EXPECT_EQ(prometheusValue(M2->Body, "vm_module_lowerings_total"),
            Lowerings1); // Warm: zero new lowerings for request 3.
  EXPECT_GE(prometheusValue(M2->Body, "serve_cache_hits_total"), 1);
  EXPECT_GE(prometheusValue(M2->Body, "serve_cache_misses_total"), 2);
  EXPECT_GE(prometheusValue(M2->Body, "analyzer_warm_hits_total"), 1);
  EXPECT_GE(prometheusValue(M2->Body, "serve_requests_total"), 5);

  // Spec errors map to 400 (the exit-2 class on the client).
  Expected<HttpResponse> Bad = httpRequest("127.0.0.1", S.port(), "POST",
                                           "/v1/run", "{\"task\": \"x\"}");
  ASSERT_TRUE(Bad.hasValue()) << Bad.error();
  EXPECT_EQ(Bad->Status, 400);

  S.requestStop();
  S.wait();

  // The disk level survived the daemon: a fresh server on the same dir
  // answers the original spec from cache.
  Server S2(SO);
  ASSERT_TRUE(S2.start().ok());
  Expected<HttpResponse> R4 =
      httpRequest("127.0.0.1", S2.port(), "POST", "/v1/run", Fig2SpecText);
  ASSERT_TRUE(R4.hasValue()) << R4.error();
  Expected<Value> D4 = Value::parse(R4->Body);
  ASSERT_TRUE(D4.hasValue());
  EXPECT_TRUE(D4->find("cached")->asBool());
  EXPECT_EQ(D1->find("report_hash")->asString(),
            D4->find("report_hash")->asString());
  S2.requestStop();
  S2.wait();
}

TEST(ServeSocketTest, BurstOfConnectionsIsAcceptedAndAnswered) {
  // All clients connect before any sends, so the kernel queues them and
  // one accept loop takes several in a single poll round. The loop has
  // no pollfd for those yet; it must not read one, and every connection
  // must still get its answer.
  ObsQuiesce Quiesce;
  Server S({});
  ASSERT_TRUE(S.start().ok());

  constexpr int Clients = 24;
  std::vector<int> Fds;
  for (int I = 0; I < Clients; ++I) {
    int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(Fd, 0);
    timeval Tv{10, 0};
    ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_port = htons(S.port());
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ASSERT_EQ(::connect(Fd, reinterpret_cast<sockaddr *>(&Addr),
                        sizeof(Addr)),
              0);
    Fds.push_back(Fd);
  }
  const std::string Req = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
  for (int Fd : Fds)
    ASSERT_EQ(::write(Fd, Req.data(), Req.size()),
              static_cast<ssize_t>(Req.size()));
  for (int Fd : Fds) {
    std::string Raw;
    char Buf[4096];
    ssize_t N;
    while ((N = ::read(Fd, Buf, sizeof(Buf))) > 0)
      Raw.append(Buf, static_cast<size_t>(N));
    ::close(Fd);
    ParsedResponse P = parseResponse(Raw);
    EXPECT_EQ(P.Status, 200) << Raw;
    EXPECT_NE(P.Body.find("\"ok\""), std::string::npos) << Raw;
  }

  S.requestStop();
  S.wait();
}

TEST(ServeSocketTest, AsyncSuiteLifecycleAndEvents) {
  ObsQuiesce Quiesce;
  ServerOptions SO;
  SO.StateDir = tempDir("suite_state");
  SO.SuiteShards = 2;
  Server S(SO);
  ASSERT_TRUE(S.start().ok());

  const char *SuiteText = R"({
    "suite": "served",
    "defaults": {"search": {"max_evals": 20000, "threads": 1}},
    "matrix": {"subjects": ["fig2"], "tasks": ["boundary"],
               "seed_base": 40, "seed_count": 4}
  })";
  Expected<HttpResponse> Posted =
      httpRequest("127.0.0.1", S.port(), "POST", "/v1/suite", SuiteText);
  ASSERT_TRUE(Posted.hasValue()) << Posted.error();
  ASSERT_EQ(Posted->Status, 202) << Posted->Body;
  Expected<Value> Ack = Value::parse(Posted->Body);
  ASSERT_TRUE(Ack.hasValue());
  std::string JobId = Ack->find("job")->asString();
  ASSERT_FALSE(JobId.empty());

  // Poll until done.
  Expected<Value> Last = Value::parse("{}");
  for (int I = 0; I < 600; ++I) {
    Expected<HttpResponse> St = httpRequest("127.0.0.1", S.port(), "GET",
                                            "/v1/jobs/" + JobId);
    ASSERT_TRUE(St.hasValue()) << St.error();
    ASSERT_EQ(St->Status, 200);
    Last = Value::parse(St->Body);
    ASSERT_TRUE(Last.hasValue());
    if (Last->find("state")->asString() != "running")
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  ASSERT_EQ(Last->find("state")->asString(), "done") << Last->dump();
  EXPECT_EQ((int)Last->find("exit_code")->asDouble(), 1); // Findings.
  const Value *Suite = Last->find("suite");
  ASSERT_NE(Suite, nullptr);
  EXPECT_EQ(Suite->find("jobs")->asDouble(), 4);

  Expected<HttpResponse> Ev = httpRequest(
      "127.0.0.1", S.port(), "GET", "/v1/jobs/" + JobId + "/events");
  ASSERT_TRUE(Ev.hasValue()) << Ev.error();
  EXPECT_NE(Ev->header("content-type").find("ndjson"), std::string::npos);
  EXPECT_NE(Ev->Body.find("\"suite_started\""), std::string::npos);
  EXPECT_NE(Ev->Body.find("\"suite_done\""), std::string::npos);

  S.requestStop();
  S.wait();
}

TEST(ServeSocketTest, OversizedBodyGets413) {
  ObsQuiesce Quiesce;
  ServerOptions SO;
  SO.Limits.MaxBodyBytes = 256;
  Server S(SO);
  ASSERT_TRUE(S.start().ok());
  std::string Huge = "{\"pad\": \"" + std::string(1024, 'x') + "\"}";
  Expected<HttpResponse> R =
      httpRequest("127.0.0.1", S.port(), "POST", "/v1/run", Huge);
  ASSERT_TRUE(R.hasValue()) << R.error();
  EXPECT_EQ(R->Status, 413);
  S.requestStop();
  S.wait();
}

//===----------------------------------------------------------------------===//
// The forked daemon: the real binary, signals and all
//===----------------------------------------------------------------------===//
#ifdef WDM_CLI_EXE

struct ForkedDaemon {
  pid_t Pid = -1;
  int OutFd = -1;
  uint16_t Port = 0;
  std::string Captured;

  /// fork/execs `wdm serve --port=0 <extra...>` and parses the
  /// "listening on host:port" line off its stdout.
  void start(std::vector<std::string> Extra) {
    int Pipe[2];
    ASSERT_EQ(::pipe(Pipe), 0);
    Pid = ::fork();
    ASSERT_GE(Pid, 0);
    if (Pid == 0) {
      ::dup2(Pipe[1], 1);
      ::close(Pipe[0]);
      ::close(Pipe[1]);
      std::vector<std::string> Args = {WDM_CLI_EXE, "serve", "--port=0"};
      Args.insert(Args.end(), Extra.begin(), Extra.end());
      std::vector<char *> Argv;
      for (std::string &A : Args)
        Argv.push_back(A.data());
      Argv.push_back(nullptr);
      ::execv(WDM_CLI_EXE, Argv.data());
      _exit(127);
    }
    ::close(Pipe[1]);
    OutFd = Pipe[0];

    std::string Line;
    char C;
    while (::read(OutFd, &C, 1) == 1 && C != '\n')
      Line += C;
    Captured = Line + "\n";
    size_t Colon = Line.rfind(':');
    ASSERT_NE(Colon, std::string::npos) << "no listen line: " << Line;
    Port = (uint16_t)std::atoi(Line.c_str() + Colon + 1);
    ASSERT_NE(Port, 0) << Line;
  }

  /// SIGTERM + waitpid; returns the exit status and drains stdout.
  int stop() {
    ::kill(Pid, SIGTERM);
    char Buf[4096];
    ssize_t N;
    while ((N = ::read(OutFd, Buf, sizeof(Buf))) > 0)
      Captured.append(Buf, (size_t)N);
    ::close(OutFd);
    int WStatus = 0;
    ::waitpid(Pid, &WStatus, 0);
    Pid = -1;
    return WStatus;
  }

  ~ForkedDaemon() {
    if (Pid > 0) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, nullptr, 0);
    }
  }
};

TEST(ForkedDaemonTest, SubmitTwiceThenSigtermDrains) {
  std::string CacheDir = tempDir("forked_cache");
  ForkedDaemon D;
  D.start({"--cache-dir=" + CacheDir});
  if (::testing::Test::HasFatalFailure())
    return;

  Expected<HttpResponse> R1 =
      httpRequest("127.0.0.1", D.Port, "POST", "/v1/run", Fig2SpecText);
  ASSERT_TRUE(R1.hasValue()) << R1.error();
  ASSERT_EQ(R1->Status, 200) << R1->Body;
  Expected<HttpResponse> R2 =
      httpRequest("127.0.0.1", D.Port, "POST", "/v1/run", Fig2SpecText);
  ASSERT_TRUE(R2.hasValue()) << R2.error();
  Expected<Value> D1 = Value::parse(R1->Body), D2 = Value::parse(R2->Body);
  ASSERT_TRUE(D1.hasValue() && D2.hasValue());
  EXPECT_FALSE(D1->find("cached")->asBool());
  EXPECT_TRUE(D2->find("cached")->asBool());
  EXPECT_EQ(D1->find("report_hash")->asString(),
            D2->find("report_hash")->asString());

  Expected<HttpResponse> M =
      httpRequest("127.0.0.1", D.Port, "GET", "/metrics");
  ASSERT_TRUE(M.hasValue()) << M.error();
  expectValidPrometheus(M->Body);
  EXPECT_GE(prometheusValue(M->Body, "serve_cache_hits_total"), 1);

  int WStatus = D.stop();
  ASSERT_TRUE(WIFEXITED(WStatus));
  EXPECT_EQ(WEXITSTATUS(WStatus), 0);
  EXPECT_NE(D.Captured.find("drained"), std::string::npos) << D.Captured;
}

TEST(ForkedDaemonTest, SigtermInterruptsInFlightSuiteGracefully) {
  std::string StateDir = tempDir("forked_state");
  ForkedDaemon D;
  D.start({"--state-dir=" + StateDir, "--shards=2"});
  if (::testing::Test::HasFatalFailure())
    return;

  // Enough work that SIGTERM lands mid-suite: the unsatisfiable fpsat
  // constraints always run to max_evals.
  Value Jobs = Value::array();
  for (int Seed = 1; Seed <= 6; ++Seed)
    Jobs.push(*Value::parse(
        "{\"task\": \"fpsat\","
        " \"constraint\": \"(and (< x 0.0) (> x 1.0))\","
        " \"search\": {\"seed\": " +
        std::to_string(Seed) +
        ", \"max_evals\": 4000000, \"threads\": 1}}"));
  std::string SuiteText = Value::object()
                              .set("suite", Value::string("drainme"))
                              .set("jobs", std::move(Jobs))
                              .dump();

  Expected<HttpResponse> Posted =
      httpRequest("127.0.0.1", D.Port, "POST", "/v1/suite", SuiteText);
  ASSERT_TRUE(Posted.hasValue()) << Posted.error();
  ASSERT_EQ(Posted->Status, 202) << Posted->Body;
  Expected<Value> Ack = Value::parse(Posted->Body);
  ASSERT_TRUE(Ack.hasValue());
  std::string JobId = Ack->find("job")->asString();

  // Wait until the suite has demonstrably started.
  bool Started = false;
  for (int I = 0; I < 100 && !Started; ++I) {
    Expected<HttpResponse> Ev = httpRequest(
        "127.0.0.1", D.Port, "GET", "/v1/jobs/" + JobId + "/events");
    ASSERT_TRUE(Ev.hasValue()) << Ev.error();
    Started = Ev->Body.find("\"job_started\"") != std::string::npos;
    if (!Started)
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  ASSERT_TRUE(Started);

  int WStatus = D.stop();
  ASSERT_TRUE(WIFEXITED(WStatus)); // Drained, not killed.
  EXPECT_EQ(WEXITSTATUS(WStatus), 0);
  EXPECT_NE(D.Captured.find("drained"), std::string::npos) << D.Captured;

  // The event log is a valid checkpoint: it ends with
  // suite_interrupted (or suite_done if every job won the race).
  std::string Log = readFileText(StateDir + "/jobs/" + JobId + ".ndjson");
  ASSERT_FALSE(Log.empty());
  EXPECT_TRUE(Log.find("\"suite_interrupted\"") != std::string::npos ||
              Log.find("\"suite_done\"") != std::string::npos)
      << Log;
}

#endif // WDM_CLI_EXE

} // namespace
