// SIGPROF stack sampler, loaded with LD_PRELOAD (see tools/profile.py).
//
//   c++ -O2 -shared -fPIC -o libsampler.so tools/sampler.cpp
//   ARMADA_PROF_OUT=samples.txt LD_PRELOAD=./libsampler.so ./program ...
//
// A constructor arms setitimer(ITIMER_PROF); every tick of process CPU time
// the SIGPROF handler records one stack: RIP from the interrupted context,
// then the return addresses along the frame-pointer chain starting at RBP.
// The walk stops when RBP leaves the thread's stack, fails to grow, or is
// misaligned, so a frame without a frame pointer ends the stack instead of
// faulting. When RIP lies outside the main program (a shared-library leaf,
// usually built without frame pointers) the word at RSP is kept too if it
// points into the program: it is then most likely the return address into
// the program's caller. Samples go to a preallocated buffer; at exit one
// line of hex addresses per sample, leaf first, is written to
// $ARMADA_PROF_OUT, which must be set: without it the sampler stays off.
// The timer asks for 1000 samples/s; the kernel's tick caps the rate,
// typically near 250/s.
//
// x86-64 Linux only. The sampled program is assumed single-threaded: the
// stack bounds are the thread's that ran the constructor. Build it with
// -fno-omit-frame-pointer -mno-omit-leaf-frame-pointer and link it with
// -no-pie so addresses symbolise directly with addr2line.
#include <link.h>
#include <pthread.h>
#include <signal.h>
#include <sys/time.h>
#include <ucontext.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace {

constexpr std::size_t kMaxDepth = 64;
constexpr long kIntervalUs = 1000;
constexpr std::size_t kBufferWords = std::size_t{1} << 21;  // 16 MiB

// Sample layout in the buffer: frame count, then the frames, leaf first.
std::uintptr_t g_buffer[kBufferWords];
volatile std::size_t g_used = 0;
volatile std::size_t g_dropped = 0;
std::uintptr_t g_stack_lo = 0;
std::uintptr_t g_stack_hi = 0;
std::uintptr_t g_text_lo = 0;
std::uintptr_t g_text_hi = 0;
const char* g_out_path = nullptr;

bool in_text(std::uintptr_t a) { return a >= g_text_lo && a < g_text_hi; }

void on_sigprof(int, siginfo_t*, void* raw) {
  const auto* uc = static_cast<const ucontext_t*>(raw);
  const auto rip = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RIP]);
  auto rbp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RBP]);
  const auto rsp = static_cast<std::uintptr_t>(uc->uc_mcontext.gregs[REG_RSP]);

  const std::size_t start = g_used;
  if (start + 1 + kMaxDepth > kBufferWords) {
    g_dropped = g_dropped + 1;
    return;
  }
  std::size_t n = 0;
  std::uintptr_t* frames = &g_buffer[start + 1];
  frames[n++] = rip;
  if (!in_text(rip) && rsp >= g_stack_lo && rsp + 8 <= g_stack_hi &&
      rsp % 8 == 0) {
    const std::uintptr_t ret = *reinterpret_cast<const std::uintptr_t*>(rsp);
    if (in_text(ret)) {
      frames[n++] = ret;
    }
  }
  std::uintptr_t prev = 0;
  while (n < kMaxDepth && rbp % 8 == 0 && rbp >= g_stack_lo &&
         rbp + 16 <= g_stack_hi && rbp > prev) {
    const auto* frame = reinterpret_cast<const std::uintptr_t*>(rbp);
    const std::uintptr_t ret = frame[1];
    if (ret == 0) {
      break;
    }
    frames[n++] = ret;
    prev = rbp;
    rbp = frame[0];
  }
  g_buffer[start] = n;
  g_used = start + 1 + n;
}

int find_text(dl_phdr_info* info, std::size_t, void*) {
  // The first object reported is the main program.
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)& ph = info->dlpi_phdr[i];
    if (ph.p_type == PT_LOAD && (ph.p_flags & PF_X) != 0) {
      g_text_lo = info->dlpi_addr + ph.p_vaddr;
      g_text_hi = g_text_lo + ph.p_memsz;
    }
  }
  return 1;  // stop after the main program
}

__attribute__((constructor)) void start_sampling() {
  g_out_path = std::getenv("ARMADA_PROF_OUT");
  if (g_out_path == nullptr) {
    std::fputs("sampler: ARMADA_PROF_OUT is not set; not sampling\n", stderr);
    return;
  }
  pthread_attr_t attr;
  if (pthread_getattr_np(pthread_self(), &attr) == 0) {
    void* addr = nullptr;
    std::size_t size = 0;
    if (pthread_attr_getstack(&attr, &addr, &size) == 0) {
      g_stack_lo = reinterpret_cast<std::uintptr_t>(addr);
      g_stack_hi = g_stack_lo + size;
    }
    pthread_attr_destroy(&attr);
  }
  dl_iterate_phdr(find_text, nullptr);

  struct sigaction sa = {};
  sa.sa_sigaction = on_sigprof;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, nullptr);

  itimerval timer = {};
  timer.it_interval.tv_usec = kIntervalUs;
  timer.it_value = timer.it_interval;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

__attribute__((destructor)) void write_samples() {
  if (g_out_path == nullptr) {
    return;
  }
  itimerval off = {};
  setitimer(ITIMER_PROF, &off, nullptr);
  std::FILE* out = std::fopen(g_out_path, "w");
  if (out == nullptr) {
    std::perror("sampler: cannot write samples");
    return;
  }
  for (std::size_t i = 0; i < g_used;) {
    const std::size_t n = g_buffer[i];
    for (std::size_t k = 0; k < n; ++k) {
      std::fprintf(out, k == 0 ? "%lx" : " %lx",
                   static_cast<unsigned long>(g_buffer[i + 1 + k]));
    }
    std::fputc('\n', out);
    i += 1 + n;
  }
  std::fclose(out);
  if (g_dropped != 0) {
    std::fprintf(stderr, "sampler: buffer full, %zu samples dropped\n",
                 static_cast<std::size_t>(g_dropped));
  }
}

}  // namespace
