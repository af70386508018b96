/* sprof: a sampling profiler for a box with no perf, valgrind or gdb.
 *
 *   gcc -O2 -shared -fPIC -o libsprof.so tools/sprof.c -ldl
 *   SPROF_OUT=run.sprof LD_PRELOAD=./libsprof.so ./program args...
 *
 * SIGPROF fires every 500 us of process CPU time; the handler records the
 * interrupted PC and the return addresses up the frame-pointer chain (build
 * the program with -C force-frame-pointers=yes; a callee without frame
 * pointers, libc's memcpy say, hides its immediate caller from that chain).
 * It also records the word on top of the stack: a leaf that pushed nothing
 * — memcpy, the `syscall` wrapper — has its return address there, and the
 * reader takes it for the caller when it is an address in the program's
 * text. At exit the samples go to $SPROF_OUT, one line each — the PC, `^`
 * and the top-of-stack word, then the chain, innermost first, all hex —
 * then an `IFUNC` line for each of memcpy's kin (glibc picks them at load
 * time from variants it does not export; dlsym returns the one picked),
 * then `MAPS` and /proc/self/maps so the reader can undo PIE relocation.
 * `./ci.sh profile` drives it and symbolises with nm. */
#define _GNU_SOURCE
#include <dlfcn.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <sys/time.h>
#include <ucontext.h>

#if !defined(__x86_64__) || !defined(__linux__)
#error "sprof reads RIP/RBP/RSP from the signal context: x86-64 Linux only"
#endif

enum { DEPTH = 48, MAX_SAMPLES = 1 << 16, STACK_WINDOW = 1 << 20 };
static uintptr_t samples[MAX_SAMPLES][DEPTH], stack_top[MAX_SAMPLES];
static volatile int taken;

static void on_sigprof(int sig, siginfo_t *info, void *ctx) {
    (void)sig, (void)info;
    int slot = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (slot >= MAX_SAMPLES)
        return;
    const greg_t *regs = ((ucontext_t *)ctx)->uc_mcontext.gregs;
    uintptr_t *out = samples[slot], sp = regs[REG_RSP], fp = regs[REG_RBP];
    int n = 0;
    out[n++] = regs[REG_RIP];
    stack_top[slot] = *(uintptr_t *)sp;
    /* A frame is [saved fp][return address]. Follow only pointers that are
     * aligned, at or above the stack pointer, near it, and strictly rising:
     * an rbp that a frame-pointer-less callee used as scratch fails these.
     * A leaf that keeps nothing on the stack has fp == sp once its
     * prologue ran, and its frame is as good as any. */
    while (n < DEPTH && fp % 8 == 0 && fp >= sp && fp - sp < STACK_WINDOW) {
        uintptr_t next = ((uintptr_t *)fp)[0], ret = ((uintptr_t *)fp)[1];
        if (ret == 0)
            break;
        out[n++] = ret;
        if (next <= fp)
            break;
        fp = next;
    }
}

__attribute__((constructor)) static void sprof_start(void) {
    struct sigaction sa = {.sa_sigaction = on_sigprof, .sa_flags = SA_SIGINFO | SA_RESTART};
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every = {{0, 500}, {0, 500}};
    setitimer(ITIMER_PROF, &every, NULL);
}

__attribute__((destructor)) static void sprof_dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SPROF_OUT");
    FILE *f = fopen(path ? path : "sprof.out", "w");
    if (!f)
        return;
    int n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    for (int i = 0; i < n; i++) {
        for (int d = 0; d < DEPTH && samples[i][d]; d++) {
            fprintf(f, "%lx ", (unsigned long)samples[i][d]);
            if (d == 0)
                fprintf(f, "^%lx ", (unsigned long)stack_top[i]);
        }
        fputc('\n', f);
    }
    static const char *const picked[] = {"memcpy", "memmove", "memset", "memcmp", "memchr", "strlen"};
    for (unsigned i = 0; i < sizeof picked / sizeof *picked; i++)
        fprintf(f, "IFUNC %lx %s\n", (unsigned long)dlsym(RTLD_DEFAULT, picked[i]), picked[i]);
    fputs("MAPS\n", f);
    FILE *maps = fopen("/proc/self/maps", "r");
    for (int c; maps && (c = fgetc(maps)) != EOF;)
        fputc(c, f);
    fclose(f);
}
