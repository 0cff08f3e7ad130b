// Command gnlgen generates a per-netlist straight-line Go evaluator:
// it compiles a design to its logicsim evaluation plan and emits a
// source file with one branch-free 64-lane Eval function that
// self-registers in logicsim's plan-hash registry, so Compile
// transparently swaps the generated code in for that exact design.
//
// Usage:
//
//	gnlgen -o out.go -pkg mypkg -prefix myDesign file.gnl
//	gnlgen -builtin -o internal/soc/mpu_evalgen.go -pkg soc -prefix mpuGen
//
// With -builtin the source design is the bundled MPU
// (soc.BuildMPU(soc.DefaultMPUConfig())); this is how the committed
// internal/soc/mpu_evalgen.go is produced (see the go:generate
// directive in internal/soc/mpu.go, or run `make gen`). Output is
// deterministic for a given design — no timestamps — so the CI drift
// job can diff a regeneration byte for byte.
//
// With -o the file is written atomically only when its content
// changes; without -o the source goes to stdout. Exit status: 0 on
// success, 2 on usage or generation errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/logicsim/codegen"
	"repro/internal/netlist"
	"repro/internal/soc"
)

func main() {
	out := flag.String("o", "", "output file (default: stdout); written only when content changes")
	pkg := flag.String("pkg", "main", "package name of the generated file")
	prefix := flag.String("prefix", "gen", "function-name prefix (<prefix>Eval)")
	builtin := flag.Bool("builtin", false, "generate for the bundled MPU instead of a .gnl file")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: gnlgen [-o out.go] [-pkg name] [-prefix name] file.gnl\n       gnlgen -builtin [-o out.go] [-pkg name] [-prefix name]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	var (
		nl     *netlist.Netlist
		source string
	)
	switch {
	case *builtin:
		if flag.NArg() != 0 {
			flag.Usage()
			os.Exit(2)
		}
		cfg := soc.DefaultMPUConfig()
		mpu, err := soc.BuildMPU(cfg)
		if err != nil {
			fatalf("build builtin MPU: %v", err)
		}
		nl = mpu.Netlist
		source = fmt.Sprintf("built-in MPU (soc.BuildMPU, regions=%d, addrBits=%d)", cfg.Regions, cfg.AddrBits)
	case flag.NArg() == 1:
		path := flag.Arg(0)
		f, err := os.Open(path)
		if err != nil {
			fatalf("%v", err)
		}
		nl, err = netlist.Read(f)
		f.Close()
		if err != nil {
			fatalf("%s: %v", path, err)
		}
		// Provenance uses the bare file name, not the invocation path,
		// so output bytes do not depend on the working directory.
		source = filepath.Base(path)
	default:
		flag.Usage()
		os.Exit(2)
	}

	src, err := codegen.Generate(nl, codegen.Config{
		Package: *pkg,
		Prefix:  *prefix,
		Source:  source,
	})
	if err != nil {
		fatalf("%v", err)
	}

	if *out == "" {
		os.Stdout.Write(src)
		return
	}
	if old, err := os.ReadFile(*out); err == nil && string(old) == string(src) {
		return // up to date; keep mtime stable for build caching
	}
	if err := writeAtomic(*out, src); err != nil {
		fatalf("%v", err)
	}
}

// writeAtomic lands the file via a same-directory rename so a killed
// run never leaves a half-written generated file in the tree.
func writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name()) //errdrop-ok (best-effort cleanup on the error path; the original error is returned)
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name()) //errdrop-ok (best-effort cleanup on the error path; the original error is returned)
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name()) //errdrop-ok (best-effort cleanup on the error path; the original error is returned)
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name()) //errdrop-ok (best-effort cleanup on the error path; the original error is returned)
		return err
	}
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gnlgen: "+format+"\n", args...)
	os.Exit(2)
}
