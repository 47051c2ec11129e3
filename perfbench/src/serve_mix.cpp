// serve_mix: pufferd as a child process (--max-running 2, so 2-thread
// leases in a 4-thread budget), driven in a closed loop by 4 client
// connections of this process, each with one job in flight.
//
// The mix is drawn from small Table I designs; about one job in four
// goes as a Bookshelf bundle (spool write + read_bookshelf in the
// daemon), the rest as binary designs. Every job is subscribed and
// fetched. This is the only workload with queueing, admission,
// telemetry, request-log fsync and result encoding, so a serve or
// poll-loop change should move it and nothing else.
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>

#include "checks.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/flow.h"
#include "io/bookshelf.h"
#include "io/design_codec.h"
#include "io/net.h"
#include "io/synthetic.h"
#include "layers.h"
#include "serve/client.h"

extern char** environ;

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using puffer::ServeMsgType;

constexpr int kClients = 4;
constexpr int kDaemonThreads = 4;
constexpr int kMaxRunning = 2;
// Each pool design appears kRepeats times per mix, once of them as a
// Bookshelf bundle: 10 x 4 = 40 jobs, one in four Bookshelf.
constexpr int kRepeats = 4;
constexpr std::size_t kMinSetups = 25;  // setup_s samples per run
constexpr int kBootsPerSample = 8;      // daemon boots (~3 ms) per sample

// Small Table I designs, ~600-1500 cells each at these scales.
struct PoolEntry {
  const char* name;
  int scale;
};
constexpr PoolEntry kPool[] = {
    {"OR1200", 128},          {"ASIC_ENTITY", 128},   {"BIT_COIN", 512},
    {"MEDIA_SUBSYS", 1024},   {"MEDIA_PG_MODIFY", 1024},
    {"A53_ADB_WRAP", 1024},   {"CT_SCAN", 2048},      {"CT_TOP", 2048},
    {"E31_ECOREPLEX", 2048},  {"OPENC910", 2048},
};
constexpr int kPoolSize = static_cast<int>(std::size(kPool));

struct PoolDesign {
  puffer::Design design;
  puffer::SubmitMsg binary;
  puffer::SubmitMsg bookshelf;
};

struct Job {
  int pool = 0;
  bool bookshelf = false;
};

// What one job of a mix saw, timestamps on this process's clock.
struct JobRecord {
  bool ok = false;
  bool rejected = false;
  std::string error;
  std::uint64_t session = 0;
  double submit = 0.0, ack = 0.0, first_telemetry = -1.0, done = 0.0,
         fetched = 0.0;
  int telemetry_frames = 0;
  puffer::DoneMsg done_msg;
  puffer::ResultMsg result;  // checked after the mix, off the clock
};

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

// A pufferd child on a fresh spool and socket. The destructor kills a
// daemon that was not drained (error paths) and always reaps it.
class Daemon {
 public:
  Daemon(const std::string& exe, const fs::path& dir, int k)
      : sock_((dir / ("d" + std::to_string(k) + ".sock")).string()),
        spool_((dir / ("spool" + std::to_string(k))).string()) {
    const std::string threads = "PUFFER_THREADS=" + std::to_string(kDaemonThreads);
    std::vector<char*> envp;
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::string(*e).rfind("PUFFER_THREADS=", 0) != 0) envp.push_back(*e);
    }
    envp.push_back(const_cast<char*>(threads.c_str()));
    envp.push_back(nullptr);
    const std::string running = std::to_string(kMaxRunning);
    const std::string queued = std::to_string(kClients);
    std::vector<const char*> argv = {
        exe.c_str(),   "--listen",      sock_.c_str(),  "--spool",
        spool_.c_str(), "--max-running", running.c_str(), "--max-queued",
        queued.c_str(), "--per-conn",    "1",            "--quiet",
        nullptr};
    // The daemon's stdout goes to our stderr: the last line of our
    // stdout must stay the result object.
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, STDERR_FILENO, STDOUT_FILENO);
    const int rc = ::posix_spawn(&pid_, exe.c_str(), &fa, nullptr,
                                 const_cast<char* const*>(argv.data()),
                                 envp.data());
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) throw std::runtime_error("cannot spawn " + exe);
  }
  ~Daemon() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      int status = 0;
      ::waitpid(pid_, &status, 0);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  // Blocks until the daemon accepts connections. Probes every
  // millisecond: the client library's own retry sleeps 100 ms, which
  // would measure its interval instead of the daemon's boot.
  void wait_listening(double timeout_s) const {
    const double until = now_s() + timeout_s;
    for (;;) {
      try {
        ::close(puffer::connect_socket(sock_));
        return;
      } catch (const std::exception&) {
        if (now_s() > until) throw;
      }
      ::usleep(1000);
    }
  }

  // SIGTERM drain; true when the daemon exited with status 0 within
  // 30 s. A daemon that hangs is killed, so the run still ends.
  bool drain() {
    ::kill(pid_, SIGTERM);
    int status = 0;
    pid_t r = 0;
    for (int ms = 0; ms < 30000 && (r = ::waitpid(pid_, &status, WNOHANG)) == 0; ++ms) {
      ::usleep(1000);
    }
    if (r == 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
    return r > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  pid_t pid() const { return pid_; }
  const std::string& socket() const { return sock_; }

 private:
  std::string sock_, spool_;
  pid_t pid_ = -1;
};

// The run's private directory (spool, sockets, Bookshelf bundles),
// removed on every exit path.
struct ScratchDir {
  explicit ScratchDir(fs::path p) : path(std::move(p)) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  fs::path path;
};

std::string pufferd_path() {
  return (fs::read_symlink("/proc/self/exe").parent_path() / "puffer_tools" /
          "pufferd")
      .string();
}

// The seeded mix: a fixed multiset of jobs (every pool design kRepeats
// times, one of them as Bookshelf) in a seeded order. The run seed only
// reorders arrivals, so a mix's work and results do not depend on it.
std::vector<Job> draw_mix(std::uint64_t seed) {
  std::vector<Job> jobs;
  for (int p = 0; p < kPoolSize; ++p) {
    for (int r = 0; r < kRepeats; ++r) jobs.push_back({p, r == 0});
  }
  puffer::RngStream rng(derive_seed(0x5E55, seed));
  for (std::size_t i = jobs.size(); i > 1; --i) {
    std::swap(jobs[i - 1], jobs[rng.next_u64() % i]);
  }
  return jobs;
}

// Runs one job on `client`: submit, subscribe, wait for Done, fetch.
void run_job(puffer::ServeClient& client, const puffer::SubmitMsg& msg,
             JobRecord& rec) {
  rec.submit = now_s();
  const puffer::ServeEvent ack = client.submit(msg);
  rec.ack = now_s();
  if (ack.type != ServeMsgType::kSubmitAck) {
    rec.rejected = ack.type == ServeMsgType::kRejected;
    rec.error = rec.rejected ? "rejected: " + ack.rejected.message
                             : "no SubmitAck";
    return;
  }
  rec.session = ack.ack.session_id;
  const puffer::SnapshotMsg snap = client.subscribe(rec.session);
  if (!snap.history.empty()) rec.first_telemetry = now_s();
  puffer::DoneMsg& done = rec.done_msg;
  if (snap.has_summary) {
    done.session_id = rec.session;
    done.summary = snap.summary;
  } else {
    for (;;) {
      const puffer::ServeEvent ev = client.next_event();
      if (ev.type == ServeMsgType::kTelemetry &&
          ev.telemetry.session_id == rec.session) {
        if (rec.first_telemetry < 0.0) rec.first_telemetry = now_s();
        ++rec.telemetry_frames;
      } else if (ev.type == ServeMsgType::kDone &&
                 ev.done.session_id == rec.session) {
        done = ev.done;
        break;
      }
    }
  }
  rec.done = now_s();
  puffer::ServeEvent res = client.fetch(rec.session);
  rec.fetched = now_s();
  if (res.type != ServeMsgType::kResult) {
    rec.error = "fetch returned no Result";
    return;
  }
  rec.result = std::move(res.result);
  rec.ok = true;
}

struct MixResult {
  std::vector<JobRecord> jobs;
  double start = 0.0, end = 0.0;
};

MixResult run_mix(const std::string& sock, const std::vector<PoolDesign>& pool,
                  const std::vector<Job>& mix) {
  MixResult out;
  out.jobs.resize(mix.size());
  // Connect every client before the clock starts.
  std::vector<std::unique_ptr<puffer::ServeClient>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<puffer::ServeClient>(
        sock, 10.0, "perfbench-" + std::to_string(c)));
  }
  std::atomic<std::size_t> next{0};
  std::vector<std::string> thread_errors(kClients);
  out.start = now_s();
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c]() {
      try {
        for (std::size_t j; (j = next.fetch_add(1)) < mix.size();) {
          const PoolDesign& d = pool[static_cast<std::size_t>(mix[j].pool)];
          run_job(*clients[static_cast<std::size_t>(c)],
                  mix[j].bookshelf ? d.bookshelf : d.binary, out.jobs[j]);
        }
      } catch (const std::exception& e) {
        thread_errors[static_cast<std::size_t>(c)] = e.what();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  out.end = now_s();
  for (const std::string& e : thread_errors) {
    if (!e.empty()) throw std::runtime_error("serve client: " + e);
  }
  return out;
}

}  // namespace

void run_serve_mix(const Options& opt, Tracer& tracer, Report& report) {
  const ScratchDir scratch(fs::path(".bench_run") / ("serve-" + std::to_string(::getpid())));
  const fs::path& dir = scratch.path;
  const std::string exe = pufferd_path();
  puffer::par::set_num_threads(kDaemonThreads);

  // Inputs: the pool designs in both wire forms (client-side, untimed
  // for setup_s; the io.* layer metrics time them).
  std::vector<PoolDesign> pool;
  std::vector<double> gen_s, encode_s, decode_s;
  for (int p = 0; p < kPoolSize; ++p) {
    puffer::SyntheticSpec spec = puffer::table1_spec(kPool[p].name, kPool[p].scale);
    spec.seed = derive_seed(spec.seed, opt.instance_seed);
    PoolDesign d;
    double t0 = now_s();
    d.design = puffer::generate_synthetic(spec);
    gen_s.push_back(now_s() - t0);
    t0 = now_s();
    d.binary.design_blob = puffer::encode_design(d.design);
    encode_s.push_back(now_s() - t0);
    t0 = now_s();
    const puffer::Design decoded = puffer::decode_design(d.binary.design_blob);
    decode_s.push_back(now_s() - t0);
    report.check(puffer::encode_design(decoded) == d.binary.design_blob,
                 std::string("design codec round trip changed ") + kPool[p].name);
    d.binary.job_name = spec.name;

    const fs::path bs = dir / ("bookshelf" + std::to_string(p));
    fs::create_directories(bs);
    puffer::write_bookshelf(d.design, (bs / spec.name).string());
    d.bookshelf.format = static_cast<std::uint8_t>(puffer::JobFormat::kBookshelfBundle);
    d.bookshelf.job_name = spec.name + "-bookshelf";
    d.bookshelf.aux_name = spec.name + ".aux";
    for (const fs::directory_entry& f : fs::directory_iterator(bs)) {
      d.bookshelf.files.emplace_back(f.path().filename().string(), read_file(f.path()));
    }
    pool.push_back(std::move(d));
  }
  const std::vector<Job> mix = draw_mix(opt.seed);

  // setup_s: spawn -> hello ack, each boot on a fresh spool and socket.
  // A sample is the mean of kBootsPerSample boots (each drained before
  // the next, off the clock). Samples come before and after the mixes,
  // so they span the run.
  std::vector<double> setup;
  int boots = 0;
  auto boot = [&](double* seconds) {
    const double t0 = now_s();
    auto d = std::make_unique<Daemon>(exe, dir, boots++);
    d->wait_listening(30.0);
    puffer::ServeClient hello(d->socket(), 10.0, "perfbench-setup");
    *seconds = now_s() - t0;
    return d;
  };
  auto time_boots = [&](std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      double sum = 0.0;
      for (int k = 0; k < kBootsPerSample; ++k) {
        double s = 0.0;
        report.check(boot(&s)->drain(), "pufferd boot drain failed");
        sum += s;
      }
      setup.push_back(sum / kBootsPerSample);
    }
  };
  time_boots(kMinSetups / 2);

  // Mixes: one untraced at least (plus one traced in a traced run), more
  // while the time lasts. Each mix gets a fresh daemon: finished sessions
  // stay resident for later fetches, so a daemon's footprint grows with
  // every job it has served (about 0.2 MiB each) and a second mix on the
  // same daemon would read a higher peak.
  std::vector<MixResult> untraced, traced;
  std::vector<double> rss;  // pufferd VmHWM after each untraced mix
  const double deadline = now_s() + opt.seconds;
  for (;;) {
    const bool trace_now = opt.trace && traced.size() < untraced.size();
    double boot_s = 0.0;
    std::unique_ptr<Daemon> daemon = boot(&boot_s);
    tracer.set_enabled(trace_now);
    MixResult m = run_mix(daemon->socket(), pool, mix);
    for (const JobRecord& r : m.jobs) {
      const int root = tracer.add("serve.job", r.submit, r.fetched, -1, r.session);
      tracer.add("serve.submit", r.submit, r.ack, root, r.session);
      tracer.add("serve.wait", r.ack, r.done, root, r.session);
      tracer.add("serve.fetch", r.done, r.fetched, root, r.session);
    }
    tracer.set_enabled(false);
    if (!trace_now) rss.push_back(peak_rss_mb(daemon->pid()));
    report.check(daemon->drain(), "pufferd did not drain with exit status 0");
    (trace_now ? traced : untraced).push_back(std::move(m));
    std::vector<double> drains;
    for (const MixResult& u : untraced) drains.push_back(u.end - u.start);
    const bool enough = !opt.trace || !traced.empty();
    if (enough && now_s() + median(drains) > deadline) break;
  }
  time_boots(kMinSetups - kMinSetups / 2);

  // Checks (off the clock): every job finished, Result == Done, the
  // fetched placement is legal and hashes to its checksum, and every
  // repeat of a job returns the same checksum on any connection. (A
  // Bookshelf job is a different input from its binary twin: the text
  // round trip moves pin offsets by rounding, so the two are keyed apart.)
  RepeatCheck repeats(reference_checksums(opt, "serve_mix"));
  auto input_key = [&mix](std::size_t j) {
    return std::string(kPool[mix[j].pool].name) + (mix[j].bookshelf ? "/bookshelf" : "");
  };
  // Input key -> (position in the mix, its first correct record).
  std::map<std::string, std::pair<std::size_t, const JobRecord*>> first_of;
  auto check_mix = [&](const MixResult& m) {
    for (std::size_t j = 0; j < m.jobs.size(); ++j) {
      const JobRecord& r = m.jobs[j];
      const std::string key = input_key(j);
      report.attempt();
      std::string err = r.error;
      if (err.empty()) {
        puffer::Design d = pool[static_cast<std::size_t>(mix[j].pool)].design;
        err = check_serve_result(d, r.done_msg, r.result);
      }
      if (err.empty()) err = repeats.observe_checksum(key, r.result.checksum);
      if (!err.empty()) {
        report.fail("serve_mix job " + std::to_string(j) + " (" + key + "): " + err);
      } else {
        first_of.emplace(key, std::make_pair(j, &r));
      }
    }
  };
  for (const MixResult& m : untraced) check_mix(m);
  for (const MixResult& m : traced) check_mix(m);

  std::vector<double> latency, first_progress, run_s, ack_s, wait_s, fetch_s,
      throughput, drains;
  int frames = 0, rejected = 0, padding_rounds = 0;
  const std::vector<MixResult>& measured = opt.trace ? traced : untraced;
  for (const MixResult& m : measured) {
    drains.push_back(m.end - m.start);
    throughput.push_back(static_cast<double>(m.jobs.size()) / (m.end - m.start));
    for (const JobRecord& r : m.jobs) {
      rejected += r.rejected ? 1 : 0;
      if (!r.ok) continue;
      latency.push_back(r.done - r.submit);
      if (r.first_telemetry >= 0.0) first_progress.push_back(r.first_telemetry - r.submit);
      const puffer::SessionSummary& sum = r.done_msg.summary;
      run_s.push_back(sum.runtime_s);
      wait_s.push_back(r.done - r.submit - sum.runtime_s);
      ack_s.push_back(r.ack - r.submit);
      fetch_s.push_back(r.fetched - r.done);
      frames += r.telemetry_frames;
      padding_rounds += sum.padding_rounds;
    }
  }

  if (opt.trace) {
    LayerSample l;
    l["serve.submit_ack_p50_s"] = median(ack_s);
    l["serve.queue_wait_p50_s"] = median(wait_s);
    l["serve.run_p50_s"] = median(run_s);
    l["serve.fetch_p50_s"] = median(fetch_s);
    l["serve.telemetry_frames"] = frames;
    l["serve.rejected"] = rejected;
    l["flow.padding_rounds"] = padding_rounds;
    l["io.design_encode_s"] = median(encode_s);
    l["io.design_decode_s"] = median(decode_s);
    l["io.generate_s"] = median(gen_s);
    emit_layers(report, {l});
    std::vector<double> plain;
    for (const MixResult& u : untraced) plain.push_back(u.end - u.start);
    report.metric("trace.overhead_pct",
                  100.0 * (median(drains) / median(plain) - 1.0), kPct);
    return;
  }

  // Quality of the mix: the routed numbers are evaluated here on the
  // fetched placements, one route per distinct input (repeats are
  // bit-identical). Summing per input in key order, not in arrival
  // order, keeps the sums' bits independent of the run seed.
  double hof = 0.0, vof = 0.0, wl = 0.0, hpwl_sum = 0.0;
  for (const auto& [key, first] : first_of) {
    const auto [j, r] = first;
    puffer::Design d = pool[static_cast<std::size_t>(mix[j].pool)].design;
    for (std::size_t i = 0; i < d.cells.size(); ++i) {
      d.cells[i].x = r->result.x[i];
      d.cells[i].y = r->result.y[i];
    }
    const puffer::RouteResult route = puffer::evaluate_routability(d);
    const double times = mix[j].bookshelf ? 1.0 : kRepeats - 1.0;
    hof += times * route.overflow.hof_pct;
    vof += times * route.overflow.vof_pct;
    wl += times * route.wirelength;
    hpwl_sum += times * r->done_msg.summary.hpwl_legal;
  }
  const double n = static_cast<double>(mix.size());
  std::printf("serve_mix seed %llu: %zu jobs per mix, %zu mixes\n",
              static_cast<unsigned long long>(opt.seed), mix.size(),
              untraced.size());

  report.metric("setup_s", median(setup), kSec);
  report.metric("wall_s", median(drains), kSec);
  report.metric("place_s", median(run_s), kSec);
  report.metric("peak_rss_mb", median(rss), "MiB");
  report.metric("hof_pct", hof / n, kPct);
  report.metric("vof_pct", vof / n, kPct);
  report.metric("routed_wl", wl, "dbu");
  report.metric("hpwl_legal", hpwl_sum, "dbu");
  report.metric("jobs_per_s", median(throughput), "1/s");
  report.metric("job_p50_s", median(latency), kSec);
  report.metric("job_p75_s", quantile(latency, 0.75), kSec);
  report.metric("telemetry_p50_s", median(first_progress), kSec);
}

}  // namespace perfbench
