// aqo_chaos — deterministic fault-schedule driver for aqo_serve.
//
// Reads a pre-generated request stream (aqo_loadgen --out=) and drives
// aqo_serve, started as a ServerProcess (io/framing.h), through it under
// one of four fault scenarios, checking after each that the server
// behaved by the robustness contract (docs/robustness.md): it stays up,
// every surviving request's response is byte-identical to a fault-free
// run, and recovered state replays cleanly. Every schedule is a pure
// function of the flags — a failing scenario reproduces with the same
// command line.
//
//   --scenario=persist-sweep --site=persist.append|persist.fsync|persist.snapshot
//       For ordinal 0, 1, ... arms --fault=<site>@<ordinal> in the
//       server, runs the full stream against a fresh state dir, and
//       checks (a) responses byte-identical to the fault-free reference,
//       (b) a warm restart on the surviving state dir also reproduces
//       the reference. The sweep ends at the first ordinal the fault
//       never fires (detected via the `health` verb's trips counter) —
//       exhaustive by construction, like tests/persist_crash_test.cc but
//       across a real process boundary with the circuit breaker armed.
//
//   --scenario=kill-restart --kill-after=<k>
//       SIGKILLs the server after the k-th response (1 <= k <= the
//       stream's frame count), restarts it warm on the same state dir,
//       replays the whole stream, and requires every response
//       byte-identical to the reference (torn journal tails included in
//       what restart must tolerate).
//
//   --scenario=frame-garbage --garbage-every=<g> --garbage-bytes=<b>
//       Injects b seeded garbage bytes after every g-th frame. The
//       server must answer one `err ?` resync frame per injection and
//       every real response must still match the reference.
//
//   --scenario=burst-shed --overload-args="--overload-queue-cap=..."
//       Runs the governed server twice over the same stream: the two
//       response streams must be byte-identical (deterministic shed set),
//       at least one shed and one degrade must occur, and every
//       non-shed, non-degraded response must match the ungoverned
//       reference.
//
// Exit status 0 = scenario held; 1 = a check failed (details on stderr).

#include <sys/wait.h>

#include <algorithm>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_common.h"
#include "io/framing.h"
#include "util/random.h"

namespace aqo {
namespace {

std::vector<std::string> LoadStream(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "error: cannot open --stream=" << path << "\n";
    std::exit(2);
  }
  std::vector<std::string> frames;
  std::string payload;
  std::string error;
  for (;;) {
    FrameRead read = ReadFrame(in, &payload, &error);
    if (read == FrameRead::kEof) break;
    if (read == FrameRead::kError) {
      std::cerr << "error: " << path << ": " << error << "\n";
      std::exit(2);
    }
    frames.push_back(payload);
  }
  if (frames.empty()) {
    std::cerr << "error: " << path << " holds no request frames\n";
    std::exit(2);
  }
  return frames;
}

// Garbage bytes keep their high bit set so no clean 4-byte window decodes
// to a plausible frame length and no payload starts with a protocol verb
// — the reader must resynchronize by sliding, which is the path under
// test.
std::string GarbageBytes(uint64_t seed, size_t index, int count) {
  Rng rng(MixSeed(seed, static_cast<uint64_t>(index)));
  std::string bytes(static_cast<size_t>(count), '\0');
  for (char& c : bytes) {
    c = static_cast<char>(0x80 + rng.UniformInt(0, 127));
  }
  return bytes;
}

struct ServerRun {
  std::vector<std::string> responses;
  int wait_status = 0;
  bool exited_clean() const {
    return WIFEXITED(wait_status) && WEXITSTATUS(wait_status) == 0;
  }
};

struct RunOptions {
  // Raw bytes appended after frame i (garbage injection); empty = none.
  uint64_t garbage_seed = 0;
  int garbage_every = 0;  // inject after every g-th frame; 0 = off
  int garbage_bytes = 0;
  // SIGKILL the server after this many responses; -1 = never.
  int kill_after = -1;
};

ServerRun RunServer(const std::string& serve_path,
                    const std::vector<std::string>& args,
                    const std::vector<std::string>& frames,
                    const RunOptions& run = {}) {
  std::vector<std::string> argv = {serve_path};
  argv.insert(argv.end(), args.begin(), args.end());
  ServerProcess server(argv);

  // Open-loop writer, like aqo_loadgen's: the whole schedule goes out
  // regardless of response progress. A SIGKILLed server turns writes into
  // errors, which end the writer. With a kill scheduled, the server's
  // stdin stays open after the last frame until the server is dead: a
  // server that has answered every frame must block on stdin, not see
  // EOF and exit before the kill lands.
  std::thread writer([&] {
    for (size_t i = 0; i < frames.size(); ++i) {
      if (!server.Send(frames[i])) break;
      if (run.garbage_every > 0 && i + 1 < frames.size() &&
          (i + 1) % static_cast<size_t>(run.garbage_every) == 0) {
        if (!server.SendBytes(
                GarbageBytes(run.garbage_seed, i, run.garbage_bytes))) {
          break;
        }
      }
    }
    if (run.kill_after < 0) server.CloseInput();
  });

  ServerRun result;
  std::string payload;
  while (server.Receive(&payload) > 0) {
    result.responses.push_back(payload);
    if (run.kill_after >= 0 &&
        result.responses.size() == static_cast<size_t>(run.kill_after)) {
      server.Kill();
    }
  }
  writer.join();
  result.wait_status = server.Wait();
  return result;
}

std::vector<std::string> SplitArgs(const std::string& text) {
  std::vector<std::string> args;
  std::istringstream split(text);
  for (std::string a; split >> a;) args.push_back(a);
  return args;
}

// Pulls "<key>=<value>" off a space-separated health/ping response; 0 if
// absent.
uint64_t ParseCounter(const std::string& response, const std::string& key) {
  std::string needle = key + "=";
  size_t pos = response.find(needle);
  if (pos == std::string::npos) return 0;
  return std::strtoull(response.c_str() + pos + needle.size(), nullptr, 10);
}

bool CheckIdentical(const std::vector<std::string>& got,
                    const std::vector<std::string>& want,
                    const std::string& what) {
  if (got.size() != want.size()) {
    std::cerr << "FAIL " << what << ": " << got.size() << " responses, want "
              << want.size() << "\n";
    return false;
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i]) {
      std::cerr << "FAIL " << what << ": response " << i << " diverged\n  got:  "
                << got[i].substr(0, 200) << "\n  want: "
                << want[i].substr(0, 200) << "\n";
      return false;
    }
  }
  return true;
}

std::string FreshDir(const std::string& root, const std::string& leaf) {
  std::string dir = root + "/" + leaf;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// --- scenarios ---

int RunPersistSweep(const std::string& serve_path,
                    const std::vector<std::string>& base_args,
                    const std::vector<std::string>& frames,
                    const std::vector<std::string>& reference,
                    const std::string& site, const std::string& state_root,
                    int max_ordinal) {
  // One extra health frame rides at the end of every faulted run so the
  // sweep can read the breaker trip counter; it is not part of the
  // reference comparison.
  std::vector<std::string> probed = frames;
  probed.push_back("health hz");

  bool swept_past_last_probe = false;
  for (int ordinal = 0; ordinal <= max_ordinal; ++ordinal) {
    std::string dir = FreshDir(state_root, site + "_" +
                                               std::to_string(ordinal));
    std::vector<std::string> args = base_args;
    args.push_back("--cache-dir=" + dir);
    args.push_back("--fault=" + site + "@" + std::to_string(ordinal));
    ServerRun faulted = RunServer(serve_path, args, probed);
    if (faulted.responses.size() != probed.size()) {
      std::cerr << "FAIL persist-sweep " << site << "@" << ordinal << ": "
                << faulted.responses.size() << " responses, want "
                << probed.size() << "\n";
      return 1;
    }
    std::vector<std::string> real(faulted.responses.begin(),
                                  faulted.responses.end() - 1);
    if (!CheckIdentical(real, reference,
                        "persist-sweep " + site + "@" +
                            std::to_string(ordinal))) {
      return 1;
    }
    uint64_t trips = ParseCounter(faulted.responses.back(), "trips");
    if (trips == 0) {
      // This ordinal was past the last live probe: the site's every
      // crash point has been swept.
      if (ordinal == 0) {
        std::cerr << "FAIL persist-sweep: " << site
                  << " never fired — wrong site name?\n";
        return 1;
      }
      swept_past_last_probe = true;
      std::filesystem::remove_all(dir);
      break;
    }
    // Whatever the faulted run left on disk must warm-start into a run
    // that reproduces the reference bit-for-bit.
    std::vector<std::string> warm_args = base_args;
    warm_args.push_back("--cache-dir=" + dir);
    ServerRun warm = RunServer(serve_path, warm_args, frames);
    if (!warm.exited_clean() ||
        !CheckIdentical(warm.responses, reference,
                        "persist-sweep warm restart " + site + "@" +
                            std::to_string(ordinal))) {
      return 1;
    }
    std::filesystem::remove_all(dir);
    std::cerr << "aqo_chaos: " << site << "@" << ordinal
              << " trips=" << trips << " ok\n";
  }
  if (!swept_past_last_probe) {
    std::cerr << "FAIL persist-sweep: " << site << " still firing at ordinal "
              << max_ordinal << "\n";
    return 1;
  }
  return 0;
}

int RunKillRestart(const std::string& serve_path,
                   const std::vector<std::string>& base_args,
                   const std::vector<std::string>& frames,
                   const std::vector<std::string>& reference,
                   const std::string& state_root, int kill_after) {
  std::string dir = FreshDir(state_root, "kill_restart");
  std::vector<std::string> args = base_args;
  args.push_back("--cache-dir=" + dir);

  RunOptions kill;
  kill.kill_after = kill_after;
  ServerRun first = RunServer(serve_path, args, frames, kill);
  if (!WIFSIGNALED(first.wait_status) ||
      WTERMSIG(first.wait_status) != SIGKILL) {
    std::cerr << "FAIL kill-restart: server was not killed (status "
              << first.wait_status << ", " << first.responses.size()
              << " responses before exit)\n";
    return 1;
  }
  // The responses that did come back must match the reference prefix —
  // dying must not corrupt in-flight answers.
  std::vector<std::string> prefix(
      reference.begin(),
      reference.begin() +
          static_cast<ptrdiff_t>(std::min(first.responses.size(),
                                          reference.size())));
  if (!CheckIdentical(first.responses, prefix, "kill-restart prefix")) {
    return 1;
  }

  // Restart warm on whatever the kill left behind (journal likely has a
  // torn tail) and replay everything.
  ServerRun second = RunServer(serve_path, args, frames);
  if (!second.exited_clean()) {
    std::cerr << "FAIL kill-restart: warm restart exited "
              << second.wait_status << "\n";
    return 1;
  }
  if (!CheckIdentical(second.responses, reference, "kill-restart replay")) {
    return 1;
  }
  std::filesystem::remove_all(dir);
  std::cerr << "aqo_chaos: kill-restart after " << first.responses.size()
            << " responses ok\n";
  return 0;
}

int RunFrameGarbage(const std::string& serve_path,
                    const std::vector<std::string>& base_args,
                    const std::vector<std::string>& frames,
                    const std::vector<std::string>& reference,
                    uint64_t seed, int garbage_every, int garbage_bytes) {
  RunOptions garble;
  garble.garbage_seed = seed;
  garble.garbage_every = garbage_every;
  garble.garbage_bytes = garbage_bytes;
  ServerRun run = RunServer(serve_path, base_args, frames, garble);
  if (!run.exited_clean()) {
    std::cerr << "FAIL frame-garbage: server exited " << run.wait_status
              << "\n";
    return 1;
  }
  size_t injections =
      garbage_every > 0 ? (frames.size() - 1) / static_cast<size_t>(
                                                    garbage_every)
                        : 0;
  std::vector<std::string> real;
  size_t resyncs = 0;
  for (const std::string& response : run.responses) {
    if (response.rfind("err ? parse: resynchronized", 0) == 0) {
      ++resyncs;
    } else {
      real.push_back(response);
    }
  }
  if (resyncs != injections) {
    std::cerr << "FAIL frame-garbage: " << resyncs
              << " resync responses, want " << injections << "\n";
    return 1;
  }
  if (!CheckIdentical(real, reference, "frame-garbage")) return 1;
  std::cerr << "aqo_chaos: frame-garbage survived " << injections
            << " injections ok\n";
  return 0;
}

int RunBurstShed(const std::string& serve_path,
                 const std::vector<std::string>& base_args,
                 const std::vector<std::string>& overload_args,
                 const std::vector<std::string>& frames,
                 const std::vector<std::string>& reference) {
  std::vector<std::string> args = base_args;
  args.insert(args.end(), overload_args.begin(), overload_args.end());
  ServerRun first = RunServer(serve_path, args, frames);
  ServerRun second = RunServer(serve_path, args, frames);
  if (!first.exited_clean() || !second.exited_clean()) {
    std::cerr << "FAIL burst-shed: governed server exited "
              << first.wait_status << "/" << second.wait_status << "\n";
    return 1;
  }
  // Determinism: two governed runs over the same stream are bytewise one
  // run.
  if (!CheckIdentical(second.responses, first.responses,
                      "burst-shed determinism")) {
    return 1;
  }
  if (first.responses.size() != reference.size()) {
    std::cerr << "FAIL burst-shed: " << first.responses.size()
              << " responses, want " << reference.size() << "\n";
    return 1;
  }
  size_t sheds = 0;
  size_t degrades = 0;
  for (size_t i = 0; i < first.responses.size(); ++i) {
    const std::string& response = first.responses[i];
    if (response.find(" shed: ") != std::string::npos &&
        response.rfind("err ", 0) == 0) {
      ++sheds;
    } else if (response.find(" degraded=1") != std::string::npos) {
      ++degrades;
    } else if (response != reference[i]) {
      std::cerr << "FAIL burst-shed: non-shed response " << i
                << " diverged from ungoverned reference\n  got:  "
                << response.substr(0, 200) << "\n  want: "
                << reference[i].substr(0, 200) << "\n";
      return 1;
    }
  }
  if (sheds == 0 || degrades == 0) {
    std::cerr << "FAIL burst-shed: schedule produced sheds=" << sheds
              << " degrades=" << degrades
              << " — thresholds too loose to exercise the governor\n";
    return 1;
  }
  std::cerr << "aqo_chaos: burst-shed sheds=" << sheds
            << " degrades=" << degrades << " ok\n";
  return 0;
}

int Main(int argc, char** argv) {
  bench::Flags flags(argc, argv);

  std::string serve_path = flags.GetString("serve");
  std::string stream_path = flags.GetString("stream");
  std::string scenario = flags.GetString("scenario");
  if (serve_path.empty() || stream_path.empty() || scenario.empty()) {
    std::cerr << "usage: aqo_chaos --serve=<aqo_serve> --stream=<frames.bin> "
                 "--scenario=persist-sweep|kill-restart|frame-garbage|"
                 "burst-shed [--site=] [--kill-after=] [--garbage-every=] "
                 "[--garbage-bytes=] [--overload-args=] [--serve-args=] "
                 "[--state-root=]\n";
    return 2;
  }
  std::vector<std::string> frames = LoadStream(stream_path);
  std::vector<std::string> base_args = SplitArgs(flags.GetString("serve-args"));
  std::string state_root = flags.GetString("state-root");
  if (state_root.empty()) {
    state_root = std::filesystem::temp_directory_path() / "aqo_chaos";
  }
  std::filesystem::create_directories(state_root);

  // The fault-free, stateless reference every scenario compares against.
  ServerRun reference = RunServer(serve_path, base_args, frames);
  if (!reference.exited_clean() ||
      reference.responses.size() != frames.size()) {
    std::cerr << "FAIL reference run: status " << reference.wait_status
              << ", " << reference.responses.size() << "/" << frames.size()
              << " responses\n";
    return 1;
  }

  if (scenario == "persist-sweep") {
    std::string site = flags.GetString("site", "persist.append");
    int max_ordinal = static_cast<int>(flags.GetInt("max-ordinal", 64));
    return RunPersistSweep(serve_path, base_args, frames,
                           reference.responses, site, state_root,
                           max_ordinal);
  }
  if (scenario == "kill-restart") {
    int kill_after = static_cast<int>(flags.GetInt("kill-after", 5));
    // The server answers one response per frame and its stdin stays
    // open until the kill, so a larger k would wait forever.
    if (kill_after < 1 || static_cast<size_t>(kill_after) > frames.size()) {
      std::cerr << "error: --kill-after must be in [1, " << frames.size()
                << "] (the stream's frame count), got " << kill_after
                << "\n";
      return 2;
    }
    return RunKillRestart(serve_path, base_args, frames,
                          reference.responses, state_root, kill_after);
  }
  if (scenario == "frame-garbage") {
    uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
    int garbage_every = static_cast<int>(flags.GetInt("garbage-every", 5));
    int garbage_bytes = static_cast<int>(flags.GetInt("garbage-bytes", 9));
    return RunFrameGarbage(serve_path, base_args, frames,
                           reference.responses, seed, garbage_every,
                           garbage_bytes);
  }
  if (scenario == "burst-shed") {
    std::vector<std::string> overload_args =
        SplitArgs(flags.GetString("overload-args"));
    if (overload_args.empty()) {
      std::cerr << "error: burst-shed needs --overload-args= with governor "
                   "flags\n";
      return 2;
    }
    return RunBurstShed(serve_path, base_args, overload_args, frames,
                        reference.responses);
  }
  std::cerr << "error: unknown --scenario '" << scenario << "'\n";
  return 2;
}

}  // namespace
}  // namespace aqo

int main(int argc, char** argv) { return aqo::Main(argc, argv); }
