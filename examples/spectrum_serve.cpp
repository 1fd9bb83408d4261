// spectrum_serve: the memoizing spectrum daemon.
//
// Listens on a TCP port for line-oriented requests (docs/protocol.md,
// "The serve wire protocol"): a RUN command followed by RunConfig
// key=value lines and END answers with the COBE-normalized C_l
// spectra.  Identical requests are answered from memory: first from an
// in-process LRU keyed by the run-identity hash, then from the
// persistent journal directory (a daemon restart keeps its memory),
// and only then by computing — with identical concurrent requests
// coalesced onto one computation.
//
// Usage:
//   spectrum_serve [--port N] [--bind ADDR] [--journal-dir DIR]
//                  [--lru N] [--lru-bytes N] [--slots N]
//
//   --port N          TCP port (default 7201; 0 = kernel-assigned)
//   --bind ADDR       bind address (default 127.0.0.1)
//   --journal-dir DIR journal store directory (default serve_journals;
//                     "" disables persistence)
//   --lru N           finished answers kept in memory (default 64)
//   --lru-bytes N     byte budget over the cached rendered replies
//                     (default 0 = count-based eviction only)
//   --slots N         concurrent answers built (default 2)
//
// SIGINT/SIGTERM shut down gracefully: the daemon stops accepting,
// in-flight requests run to completion (their journals are flushed per
// mode as always), connections drain, and the process exits 0.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "serve/server.hpp"
#include "serve/service.hpp"

namespace {

plinger::serve::SpectrumServer* g_server = nullptr;

extern "C" void handle_signal(int) {
  if (g_server != nullptr) g_server->request_stop();
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--port N] [--bind ADDR] [--journal-dir DIR] "
               "[--lru N] [--lru-bytes N] [--slots N]\n",
               argv0);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace plinger::serve;

  ServeOptions sopts;
  sopts.journal_dir = "serve_journals";
  ServerOptions nopts;
  nopts.port = 7201;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--port" && has_value) {
      nopts.port = static_cast<std::uint16_t>(std::atoi(argv[++i]));
    } else if (arg == "--bind" && has_value) {
      nopts.bind_address = argv[++i];
    } else if (arg == "--journal-dir" && has_value) {
      sopts.journal_dir = argv[++i];
    } else if (arg == "--lru" && has_value) {
      sopts.lru_capacity = static_cast<std::size_t>(std::atoi(argv[++i]));
    } else if (arg == "--lru-bytes" && has_value) {
      sopts.lru_max_bytes = static_cast<std::size_t>(std::atoll(argv[++i]));
    } else if (arg == "--slots" && has_value) {
      sopts.compute_slots = std::atoi(argv[++i]);
    } else {
      return usage(argv[0]);
    }
  }

  try {
    SpectrumService service(sopts);
    SpectrumServer server(service, nopts);
    g_server = &server;

    struct sigaction sa{};
    sa.sa_handler = handle_signal;
    ::sigaction(SIGINT, &sa, nullptr);
    ::sigaction(SIGTERM, &sa, nullptr);

    std::printf("spectrum_serve: listening on %s:%u (journal dir: %s, "
                "lru %zu entries / %zu bytes, %d compute slots)\n",
                nopts.bind_address.c_str(), server.port(),
                sopts.journal_dir.empty() ? "<off>"
                                          : sopts.journal_dir.c_str(),
                sopts.lru_capacity, sopts.lru_max_bytes,
                sopts.compute_slots);
    std::fflush(stdout);
    server.serve();

    const ServeStats s = service.stats();
    std::printf("spectrum_serve: drained; %llu requests (%llu lru, "
                "%llu journal, %llu computed, %llu coalesced)\n",
                static_cast<unsigned long long>(s.requests),
                static_cast<unsigned long long>(s.lru_hits),
                static_cast<unsigned long long>(s.journal_hits),
                static_cast<unsigned long long>(s.computes),
                static_cast<unsigned long long>(s.coalesced));
    g_server = nullptr;
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spectrum_serve: %s\n", e.what());
    return 1;
  }
}
