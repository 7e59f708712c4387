package cluster

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"res/internal/service"
	"res/internal/workload"
)

// ---- peer health ----

// TestPeerCallsReportTransportFailure sends one request to each endpoint
// that fans out to the peers, on a node whose only peer is a closed
// listener: every peer call must report the refused connection to the
// prober, so the dead peer ends up suspect or down.
func TestPeerCallsReportTransportFailure(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := "http://" + l.Addr().String()
	l.Close()
	bug := workload.RaceCounter()
	register, err := json.Marshal(map[string]string{"name": bug.Name, "source": bug.Source})
	if err != nil {
		t.Fatal(err)
	}
	id := strings.Repeat("ab", 32)
	for _, tc := range []struct{ name, method, path, body string }{
		{"register", http.MethodPost, "/v1/programs", string(register)},
		{"result", http.MethodGet, "/v1/results/" + id, ""},
		{"events", http.MethodGet, "/v1/jobs/" + id + "/events", ""},
		{"minimize", http.MethodPost, "/v1/jobs/" + id + "/minimize", "{}"},
		{"trace", http.MethodGet, "/v1/jobs/" + id + "/trace", ""},
		{"buckets", http.MethodGet, "/v1/buckets", ""},
		{"federation", http.MethodGet, "/v1/cluster/metrics", ""},
		{"repair", http.MethodPost, "/internal/v1/repair", ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := service.New(service.Config{})
			defer svc.Shutdown(context.Background())
			// A long probe interval keeps the probe loop from observing
			// the dead peer: only the request under test can.
			n, err := New(Config{Self: "http://self.test", Peers: []string{dead}, Service: svc,
				ProbeInterval: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			defer n.Close()
			rec := httptest.NewRecorder()
			n.Handler().ServeHTTP(rec, httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body)))
			if st := n.prober.state(dead); st != StateSuspect && st != StateDown {
				t.Errorf("%s %s answered %d and left the dead peer %v, want suspect or down",
					tc.method, tc.path, rec.Code, st)
			}
		})
	}
}

// ---- disk spool ----

func TestSpoolMemoryAndSpill(t *testing.T) {
	dir := t.TempDir()

	small := []byte("a small submission body")
	sp, err := newSpool(bytes.NewReader(small), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	if sp.spilled() || sp.Size() != int64(len(small)) {
		t.Fatalf("small body: spilled=%v size=%d", sp.spilled(), sp.Size())
	}
	got, _ := io.ReadAll(sp.NewReader())
	if !bytes.Equal(got, small) {
		t.Fatal("small body round-trip mismatch")
	}

	// A body past the memory limit spills to a temp file; readers are
	// independent (each starts at offset 0) and Close removes the file.
	big := bytes.Repeat([]byte("0123456789abcdef"), (spoolMemLimit/16)+1024)
	sp2, err := newSpool(bytes.NewReader(big), dir)
	if err != nil {
		t.Fatal(err)
	}
	if !sp2.spilled() || sp2.Size() != int64(len(big)) {
		t.Fatalf("big body: spilled=%v size=%d want %d", sp2.spilled(), sp2.Size(), len(big))
	}
	name := sp2.f.Name()
	if _, err := os.Stat(name); err != nil {
		t.Fatalf("spool file missing: %v", err)
	}
	r1, r2 := sp2.NewReader(), sp2.NewReader()
	head := make([]byte, 1024)
	if _, err := io.ReadFull(r1, head); err != nil {
		t.Fatal(err)
	}
	all, err := io.ReadAll(r2)
	if err != nil || !bytes.Equal(all, big) {
		t.Fatalf("second reader not independent/complete: %v", err)
	}
	rest, err := io.ReadAll(r1)
	if err != nil || !bytes.Equal(append(head, rest...), big) {
		t.Fatalf("first reader lost its offset: %v", err)
	}
	sp2.Close()
	if _, err := os.Stat(name); !os.IsNotExist(err) {
		t.Fatalf("Close left the spool file behind: %v", err)
	}
}

// ---- streaming submit-head parser ----

// failAfterEOF errors on any Read: appended after a prefix it proves the
// parser stopped inside the prefix.
type failReader struct{}

func (failReader) Read([]byte) (int, error) {
	return 0, fmt.Errorf("parser read past the routing head")
}

func TestParseSubmitHeadEarlyExit(t *testing.T) {
	// program_id first, then a dump field whose value lives past the fail
	// point: the parser must stop at the dump key without touching the
	// payload. The padding keeps the decoder's read-ahead buffer inside
	// the safe prefix.
	prefix := `{"program_id":"deadbeef","dump":"` + strings.Repeat("A", 64<<10)
	h, err := parseSubmitHead(io.MultiReader(strings.NewReader(prefix), failReader{}))
	if err != nil {
		t.Fatalf("parser did not early-exit before the dump payload: %v", err)
	}
	if h.ProgramID != "deadbeef" {
		t.Fatalf("head = %+v", h)
	}

	// Batch form routes on the same head: "dumps" triggers the same stop.
	prefix = `{"program_source":"mov r0, 1","dumps":["` + strings.Repeat("B", 64<<10)
	h, err = parseSubmitHead(io.MultiReader(strings.NewReader(prefix), failReader{}))
	if err != nil || h.ProgramSource != "mov r0, 1" {
		t.Fatalf("batch head = %+v, err = %v", h, err)
	}
}

func TestParseSubmitHeadReorderedAndEdgeCases(t *testing.T) {
	// A client that puts the dump first still routes — the parser skips
	// the payload value and finds the program afterwards.
	dump := base64.StdEncoding.EncodeToString(bytes.Repeat([]byte{0xAB}, 4096))
	body := fmt.Sprintf(`{"dump":%q,"options":{"max_depth":5,"nested":[1,{"a":2}]},"program_id":"cafe"}`, dump)
	h, err := parseSubmitHead(strings.NewReader(body))
	if err != nil || h.ProgramID != "cafe" {
		t.Fatalf("reordered head = %+v, err = %v", h, err)
	}

	// No program field at all: empty head, no error (fingerprint
	// resolution rejects it later with a proper message).
	h, err = parseSubmitHead(strings.NewReader(`{"dump":"xyz"}`))
	if err != nil || h.ProgramID != "" || h.ProgramSource != "" {
		t.Fatalf("program-less head = %+v, err = %v", h, err)
	}

	// Not an object: a clean parse error, not a panic.
	if _, err := parseSubmitHead(strings.NewReader(`[1,2,3]`)); err == nil {
		t.Fatal("array body accepted")
	}
	if _, err := parseSubmitHead(strings.NewReader(``)); err == nil {
		t.Fatal("empty body accepted")
	}
}
