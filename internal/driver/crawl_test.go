package driver

import (
	"bytes"
	"go/build"
	"io"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// FuzzInBuild checks the driver's build decision against its definition:
// go/build's MatchFile over the same bytes. plainFile answers for most
// files without MatchFile, so the decision and the error must match it for
// any base name and any file, under either cgo setting.
func FuzzInBuild(f *testing.F) {
	names := []string{
		"a.go", "linux.go", "a.b.go", "a_foo.go", "_a.go", ".a.go", "a.c", "a",
		"a_test.go", "a_" + runtime.GOOS + ".go", "a_" + runtime.GOARCH + ".go",
		"a_" + runtime.GOOS + "_" + runtime.GOARCH + ".go", "a_" + runtime.GOOS + "_test.go",
		"a_windows.go", "a_plan9_arm.go", "a_wasm.go", "a_js_wasm_test.go",
	}
	heads := []string{
		"",
		"//go:build ignore\n\n",
		"//go:build " + runtime.GOOS + "\n\n",
		"//go:build !" + runtime.GOOS + " && cgo\n\n",
		"//go:build (\n\n",
		"//go:build a\n//go:build b\n\n",
		"// +build ignore\n\n",
		"// +build " + runtime.GOARCH + "\n\n",
		"/*\npackage q\n*/\n//go:build ignore\n\n",
		"// Code generated by gen. DO NOT EDIT.\n\n",
		"\xef\xbb\xbf",
	}
	bodies := []string{
		"package p\n",
		"package p\n\nimport \"C\"\n\nfunc f() {}\n",
		"package p\n\nimport (\n\t\"C\"\n\t\"fmt\"\n)\n",
		"packag p\n\nfunc f() {}\n",
		"package\n",
		"package p\n\nconst s = \"a\x00b\"\n",
		"packag p\n\nconst s = \"a\x00b\"\n",
		"package p\n\n// +build ignore\n\nfunc f() {}\n",
	}
	for i, name := range names {
		for j, head := range heads {
			for k, body := range bodies {
				if (i+j+k)%5 == 0 {
					f.Add(name, []byte(head+body), (i+k)%2 == 0)
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, name string, src []byte, cgo bool) {
		if name == "" || strings.ContainsAny(name, `/\`) || filepath.Base(name) != name {
			t.Skip("not a base name")
		}
		ctx := build.Default
		ctx.CgoEnabled = cgo
		path := filepath.Join("dir", name)
		got, gotErr := inBuild(&ctx, path, src)

		ctx.OpenFile = func(string) (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(src)), nil }
		want, wantErr := ctx.MatchFile("dir", name)
		if got != want || errText(gotErr) != errText(wantErr) {
			t.Fatalf("inBuild(%q, %q) = %v, %v; MatchFile says %v, %v", name, src, got, gotErr, want, wantErr)
		}
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
