package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// hostHeader renders the host and configuration fingerprint every run
// prints first: timings are only comparable between runs whose
// fingerprints match.
func hostHeader(walDir string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== host\n")
	fmt.Fprintf(&b, "  cpu_model      %s\n", cpuModel())
	fmt.Fprintf(&b, "  nproc          %d\n", runtime.NumCPU())
	fmt.Fprintf(&b, "  gomaxprocs     %d\n", runtime.GOMAXPROCS(0))
	fmt.Fprintf(&b, "  go_version     %s\n", runtime.Version())
	fmt.Fprintf(&b, "  git_commit     %s\n", gitCommit())
	fmt.Fprintf(&b, "  source_digest  %s\n", sourceDigest())
	if walDir != "" {
		fmt.Fprintf(&b, "  wal_fs         %s\n", fsType(walDir))
	}
	return b.String()
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit names the checked-out commit, or says why it cannot. Git
// may not search above the working directory for a repository.
func gitCommit() string {
	wd, err := os.Getwd()
	if err != nil {
		return "unknown"
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	out, err := cmd.Output()
	if err != nil {
		return "none (not a git checkout)"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every .go file and go.mod under the checkout
// root: it identifies the code under test where no git metadata exists.
func sourceDigest() string {
	root, err := moduleRoot()
	if err != nil {
		return "unknown"
	}
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		rp, _ := filepath.Rel(root, p)
		io.WriteString(h, rp+"\x00")
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16] + fmt.Sprintf(" (%d files)", len(files))
}

// moduleRoot finds the directory holding the system's go.mod: the
// working directory when run from the checkout root.
func moduleRoot() (string, error) {
	wd, err := os.Getwd()
	if err != nil {
		return "", err
	}
	if _, err := os.Stat(filepath.Join(wd, "go.mod")); err != nil {
		return "", err
	}
	return wd, nil
}

// fsType names the filesystem holding dir (fsync cost depends on it).
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53:     "ext2/3/4",
		0x01021994: "tmpfs",
		0x794C7630: "overlayfs",
		0x58465342: "xfs",
		0x9123683E: "btrfs",
		0x2FC12FC1: "zfs",
		0x6969:     "nfs",
		0x65735546: "fuse",
	}
	magic := int64(st.Type)
	if n, ok := names[magic]; ok {
		return n
	}
	return "0x" + strconv.FormatInt(magic, 16)
}
