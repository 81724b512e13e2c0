/* sprof: a sampling profiler that needs nothing from the program it
 * samples. Loaded with LD_PRELOAD, its constructor arms ITIMER_PROF; every
 * SIGPROF (one per millisecond of CPU time, or per kernel tick if that is
 * longer) records the interrupted instruction pointer; its destructor
 * writes the samples and /proc/self/maps to SPROF_OUT (default sprof.out)
 * for report.py.
 *
 *   gcc -O2 -shared -fPIC -o sprof.so sprof.c
 */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>

#define MAX_SAMPLES (1u << 20)

static unsigned long long samples[MAX_SAMPLES];
static volatile unsigned count;

static void on_prof(int sig, siginfo_t *info, void *ctx) {
    (void)sig;
    (void)info;
    unsigned i = __atomic_fetch_add(&count, 1, __ATOMIC_RELAXED);
    if (i < MAX_SAMPLES)
        samples[i] = ((ucontext_t *)ctx)->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void start(void) {
    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_sigaction = on_prof;
    sa.sa_flags = SA_SIGINFO | SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval tv = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &tv, NULL);
}

__attribute__((destructor)) static void stop(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    const char *path = getenv("SPROF_OUT");
    FILE *out = fopen(path ? path : "sprof.out", "w");
    if (!out)
        return;
    unsigned n = count < MAX_SAMPLES ? count : MAX_SAMPLES;
    fprintf(out, "samples %u\n", n);
    for (unsigned i = 0; i < n; i++)
        fprintf(out, "%llx\n", samples[i]);
    fprintf(out, "maps\n");
    FILE *maps = fopen("/proc/self/maps", "r");
    if (maps) {
        char line[4096];
        while (fgets(line, sizeof line, maps))
            fputs(line, out);
        fclose(maps);
    }
    fclose(out);
}
