// Command gompcc is the pragma preprocessor — the user-facing entry point
// of the paper's contribution. It rewrites Go source annotated with
// //omp … comments into plain Go that calls the gomp runtime, after which
// the ordinary Go toolchain compiles it (the paper integrates the
// equivalent pass into the Zig compiler ahead of its cache).
//
// Usage:
//
//	gompcc -o output.go input.go            # write transformed source, marked generated
//	gompcc -stdout input.go                 # print to stdout
//	gompcc -explain input.go…               # describe each directive, change nothing
//	gompcc -profile input.go                # also auto-instrument for profiling
//	gompcc -module root -outdir out [-jobs N]  # mirror a whole tree, transformed
//	go build -toolexec="gompcc -toolexec" ./…   # inside a plain go build
//
// The package documentation of gomp/internal/driver describes the three
// build paths (single file, mirror, toolexec) and what each writes.
//
// Files without pragmas pass through unchanged. With -profile, every
// function containing a pragma gets a source-located profiling span and
// func main gains the profiler lifecycle, so the built program prints a
// flat profile naming the user's pragma locations on exit (see the omp
// package's Profile for the GOMP_TRACE_JSON / GOMP_METRICS switches).
// Setting GOMP_DEBUG_ADDR on such a binary additionally serves the live
// /debug/gomp endpoint suite — worker states, OpenMetrics scrape,
// on-demand profile/timeline windows, imbalance analysis — for its
// whole run, so a long-lived instrumented program is monitorable
// without rebuilding.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"gomp/internal/core"
	"gomp/internal/driver"
	"gomp/omp"
)

func main() {
	// -toolexec dispatches before flag parsing: everything after it is
	// the tool's own command line (full of flags gompcc must not eat).
	if len(os.Args) > 1 && os.Args[1] == "-toolexec" {
		code, err := driver.Toolexec(os.Args[2:])
		if err != nil {
			fmt.Fprintln(os.Stderr, "gompcc:", err)
		}
		os.Exit(code)
	}
	var (
		out      = flag.String("o", "", "output file (this or -stdout is required for a single input)")
		toStdout = flag.Bool("stdout", false, "write the transformed source to stdout")
		explain  = flag.Bool("explain", false, "print each recognized directive of the input files with its parsed clauses and the lowering it will receive, without rewriting")
		profile  = flag.Bool("profile", false, "auto-instrument the output: profiling spans in pragma-containing functions, profiler lifecycle in main")
		module   = flag.String("module", "", "build driver: crawl this tree and mirror it under -outdir, transforming every pragma-bearing file")
		outdir   = flag.String("outdir", "", "with -module: the root the transformed tree is mirrored under (required)")
		jobs     = flag.Int("jobs", 0, "with -module: transform worker count (default GOMAXPROCS; 1 = serial)")
		cache    = flag.String("cache", "", "with -module: cache directory (default <module>/.gompcc-cache; 'off' disables)")
	)
	flag.Parse()

	if *module != "" {
		if err := runModule(*module, *outdir, *cache, *jobs, *profile, os.Stderr); err != nil {
			fail(err)
		}
		return
	}
	if *explain && flag.NArg() > 0 {
		// A dry run: explain every file named, write nothing.
		if err := explainFiles(flag.Args(), os.Stdout); err != nil {
			fail(err)
		}
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: gompcc (-o out.go | -stdout) input.go | -explain input.go… | -module root -outdir out")
		os.Exit(2)
	}
	if err := runFile(flag.Arg(0), *out, *toStdout, *profile, os.Stdout, os.Stderr); err != nil {
		fail(err)
	}
}

// runFile transforms the single input in to stdout or to the file dst. An
// output beside the input would not build with it (both declare the same
// functions), so one of the two must be asked for.
func runFile(in, dst string, toStdout, profile bool, stdout, log io.Writer) error {
	switch {
	case toStdout:
		res, err := processFile(in, profile)
		if err != nil {
			return err
		}
		_, err = stdout.Write(res)
		return err
	case dst == "":
		return fmt.Errorf("%s: name the output with -o out.go, or print it with -stdout", in)
	}
	if err := writeFile(in, dst, profile); err != nil {
		return err
	}
	fmt.Fprintf(log, "gompcc: %s -> %s\n", in, dst)
	return nil
}

// writeFile transforms in and writes the result to dst under the driver's
// generated-code header, which names in as the source: the output is
// marked generated, so a module crawl never takes it for a source file.
func writeFile(in, dst string, profile bool) error {
	res, err := processFile(in, profile)
	if err != nil {
		return err
	}
	return driver.WriteFileAtomic(dst, append(driver.GeneratedHeader(in), res...), 0o644)
}

// runModule wires the -module flag set to the build driver. Under
// GOMP_METRICS the pass itself is profiled — the driver's fan-out runs
// on the omp runtime, so the flat profile and the driver-cold/warm
// counters report the build like any other workload.
func runModule(module, outdir, cache string, jobs int, profile bool, log io.Writer) error {
	d, err := driver.New(driver.Config{
		Module:   module,
		OutDir:   outdir,
		Jobs:     jobs,
		CacheDir: cache,
		Profile:  profile,
	})
	if err != nil {
		return err
	}
	if os.Getenv("GOMP_METRICS") != "" {
		defer omp.Profile()()
	}
	rep, err := d.Run()
	if err != nil {
		return err
	}
	fmt.Fprintf(log, "gompcc: module %s: %s\n", module, rep.Summary())
	for _, dg := range rep.Diags {
		fmt.Fprintf(log, "gompcc: %v\n", dg.Err)
	}
	return rep.Err()
}

// explainFiles explains each of paths in turn (explainFile).
func explainFiles(paths []string, w io.Writer) error {
	for _, path := range paths {
		if err := explainFile(path, w); err != nil {
			return err
		}
	}
	return nil
}

// explainFile prints every recognized directive of path — its line, its
// parsed clause set rendered back to pragma syntax, and the lowering or
// transformation the preprocessor would apply — without rewriting
// anything. The directive dry run of the front end.
func explainFile(path string, w io.Writer) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	name := filepath.Base(path)
	infos, err := core.Inspect(src, core.Options{Filename: name})
	if err != nil {
		return err
	}
	if len(infos) == 0 {
		fmt.Fprintf(w, "%s: no omp pragmas\n", name)
		return nil
	}
	for _, pi := range infos {
		fmt.Fprintf(w, "%s:%d: //omp %s\n", name, pi.Line, pi.Dir)
		fmt.Fprintf(w, "    %s\n", core.Explain(pi.Dir))
	}
	return nil
}

func processFile(path string, profile bool) ([]byte, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	res, err := core.Transform(src, core.Options{Filename: filepath.Base(path), Profile: profile})
	return res.Output, err
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "gompcc:", err)
	os.Exit(1)
}
