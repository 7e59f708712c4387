package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"res/internal/service"
	"res/internal/store"
)

// The JSON form of a store key, in each place it is written: one line of
// the disk store's key index, one journal job entry, one replication
// envelope, and one store-index response. Nodes of different builds
// exchange the last two, and the first two outlive the process that
// wrote them, so the bytes are pinned.
const (
	goldenIndexLine  = `{"space":"result","program":"1310ca2c8932dbd118668bd97442558a3e1f546b5e15c69699dfbd6024f548d8","dump":"b6ca0868bca6a2926b70aa1a71592038d9030fe26d4214edcfbd6cf41f2f4654","options":"a793ab8fcc2afce5e42b3044090719ddaff19741697d93b3b7f36838dd5e825c"}`
	goldenJournalJob = `{"t":"job","job":{"id":"ee3d5a6089e08fb09f8f64cb250c3dc11de389d93a47ee2c52a5394368d4dcbc","program":"1310ca2c8932dbd118668bd97442558a3e1f546b5e15c69699dfbd6024f548d8","status":"done","bucket":"golden-bucket","key":{"space":"result","program":"1310ca2c8932dbd118668bd97442558a3e1f546b5e15c69699dfbd6024f548d8","dump":"b6ca0868bca6a2926b70aa1a71592038d9030fe26d4214edcfbd6cf41f2f4654","options":"a793ab8fcc2afce5e42b3044090719ddaff19741697d93b3b7f36838dd5e825c"},"finished_at":"2026-01-02T03:04:05Z"}}`
	goldenEnvelope   = `{"space":"dump","program":"0000000000000000000000000000000000000000000000000000000000000000","dump":"fac1cf764eda1a9465b63785fb04309c84e928b631f6c8643ead0ed65daaf45b","options":"0000000000000000000000000000000000000000000000000000000000000000","data":"Z29sZGVuIGR1bXAgYmxvYg=="}`
	goldenStoreIndex = `[{"space":"dump","program":"0000000000000000000000000000000000000000000000000000000000000000","dump":"fac1cf764eda1a9465b63785fb04309c84e928b631f6c8643ead0ed65daaf45b","options":"0000000000000000000000000000000000000000000000000000000000000000"},{"space":"result","program":"1310ca2c8932dbd118668bd97442558a3e1f546b5e15c69699dfbd6024f548d8","dump":"b6ca0868bca6a2926b70aa1a71592038d9030fe26d4214edcfbd6cf41f2f4654","options":"a793ab8fcc2afce5e42b3044090719ddaff19741697d93b3b7f36838dd5e825c"}]`
)

// The golden rows carry two keys: a result key with three distinct
// fingerprints, and a dump key, whose program and options are zero.
var (
	goldenReport    = []byte(`{"cause":"golden"}`)
	goldenBlob      = []byte("golden dump blob")
	goldenResultKey = store.ResultKey(store.BytesFingerprint([]byte("program")),
		store.BytesFingerprint([]byte("dump")), store.BytesFingerprint([]byte("options")))
	goldenDumpKey = store.DumpKey(store.BytesFingerprint(goldenBlob))
)

// TestKeyJSONGolden checks every golden row both ways: this code writes
// exactly the golden bytes, and reads the golden bytes back to the same
// key.
func TestKeyJSONGolden(t *testing.T) {
	t.Run("index-line", func(t *testing.T) {
		dir := t.TempDir()
		st, err := store.NewDisk(0, dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Put(goldenResultKey, goldenReport); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, "index.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != goldenIndexLine+"\n" {
			t.Errorf("key index line:\n got %s\nwant %s", got, goldenIndexLine)
		}

		dir = t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "index.jsonl"), []byte(goldenIndexLine+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		if st, err = store.NewDisk(0, dir); err != nil {
			t.Fatal(err)
		}
		if keys := st.Keys(); len(keys) != 1 || keys[0] != goldenResultKey {
			t.Errorf("golden index line loads as %v, want [%v]", keys, goldenResultKey)
		}
	})

	t.Run("journal-job", func(t *testing.T) {
		var entry struct {
			T   string              `json:"t"`
			Job *service.JournalJob `json:"job"`
		}
		if err := json.Unmarshal([]byte(goldenJournalJob), &entry); err != nil {
			t.Fatal(err)
		}
		again, err := json.Marshal(entry)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != goldenJournalJob {
			t.Errorf("journal job entry:\n got %s\nwant %s", again, goldenJournalJob)
		}

		// Replaying the entry restores a done job whose report resolves
		// through the decoded key.
		path := filepath.Join(t.TempDir(), "journal.jsonl")
		if err := os.WriteFile(path, []byte(goldenJournalJob+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := service.OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		st := store.New(0)
		if err := st.Put(goldenResultKey, goldenReport); err != nil {
			t.Fatal(err)
		}
		svc := service.New(service.Config{Store: st, Journal: j})
		defer svc.Shutdown(context.Background())
		job, ok := svc.Job(goldenResultKey.ID())
		if !ok || job.Status != service.StatusDone || !bytes.Equal(job.Report, goldenReport) {
			t.Errorf("replayed golden job = %+v, %v; want done with the golden report", job, ok)
		}
	})

	peer := newGoldenPeer(t)

	t.Run("envelope", func(t *testing.T) {
		_, svc := goldenNode(t, peer.URL)
		if err := svc.Store().Put(goldenDumpKey, goldenBlob); err != nil {
			t.Fatal(err)
		}
		if got := peer.put("/internal/v1/store/" + goldenDumpKey.ID()); got != goldenEnvelope {
			t.Errorf("replication envelope:\n got %s\nwant %s", got, goldenEnvelope)
		}

		c, svc := goldenNode(t, peer.URL)
		rec := httptest.NewRecorder()
		c.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPut,
			"/internal/v1/store/"+goldenDumpKey.ID(), strings.NewReader(goldenEnvelope)))
		if rec.Code != http.StatusNoContent {
			t.Fatalf("PUT of the golden envelope = %d %s", rec.Code, rec.Body)
		}
		if data, ok := svc.Store().PeekLocal(goldenDumpKey); !ok || !bytes.Equal(data, goldenBlob) {
			t.Errorf("golden envelope stored %q, %v; want the golden blob", data, ok)
		}
	})

	t.Run("store-index", func(t *testing.T) {
		a, svc := goldenNode(t, peer.URL)
		for k, data := range map[store.Key][]byte{goldenDumpKey: goldenBlob, goldenResultKey: goldenReport} {
			if err := svc.Store().PutLocal(k, data); err != nil {
				t.Fatal(err)
			}
		}
		rec := httptest.NewRecorder()
		a.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/internal/v1/store-index", nil))
		if got := rec.Body.String(); got != goldenStoreIndex+"\n" {
			t.Errorf("store-index response:\n got %s\nwant %s", got, goldenStoreIndex)
		}

		// A sweep that reads the golden index from its peer pulls both
		// keys it names.
		c, svc := goldenNode(t, peer.URL)
		if st := c.RepairNow(context.Background()); st.Pulled != 2 {
			t.Errorf("sweep over the golden index = %+v, want 2 pulled", st)
		}
		for k, want := range map[store.Key][]byte{goldenDumpKey: goldenBlob, goldenResultKey: goldenReport} {
			if data, ok := svc.Store().PeekLocal(k); !ok || !bytes.Equal(data, want) {
				t.Errorf("key %v after the sweep: %q, %v", k, data, ok)
			}
		}
	})
}

// goldenPeer is a fake cluster member: it records replication PUTs, and
// serves the golden store index and the artifacts it names.
type goldenPeer struct {
	*httptest.Server
	mu   sync.Mutex
	puts map[string]string
}

func newGoldenPeer(t *testing.T) *goldenPeer {
	p := &goldenPeer{puts: make(map[string]string)}
	artifacts := map[string][]byte{goldenDumpKey.ID(): goldenBlob, goldenResultKey.ID(): goldenReport}
	p.Server = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch {
		case r.URL.Path == "/internal/v1/store-index":
			io.WriteString(w, goldenStoreIndex+"\n")
		case r.Method == http.MethodPut && strings.HasPrefix(r.URL.Path, "/internal/v1/store/"):
			body, _ := io.ReadAll(r.Body)
			p.mu.Lock()
			p.puts[r.URL.Path] = string(body)
			p.mu.Unlock()
			w.WriteHeader(http.StatusNoContent)
		case strings.HasPrefix(r.URL.Path, "/internal/v1/store/"):
			data, ok := artifacts[strings.TrimPrefix(r.URL.Path, "/internal/v1/store/")]
			if !ok {
				http.NotFound(w, r)
				return
			}
			w.Write(data)
		}
	}))
	t.Cleanup(p.Close)
	return p
}

func (p *goldenPeer) put(path string) string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.puts[path]
}

// goldenNode is a node whose only peer is the fake one: with two members
// and two replicas, every key is replicated to both.
func goldenNode(t *testing.T, peer string) (*Node, *service.Service) {
	svc := service.New(service.Config{})
	n, err := New(Config{Self: "http://self.test", Peers: []string{peer}, Replicas: 2,
		Service: svc, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		n.Close()
		svc.Shutdown(context.Background())
	})
	return n, svc
}
