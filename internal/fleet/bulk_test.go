package fleet

import (
	"archive/tar"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/bulkq"
)

// bulkTar packs arbitrary byte images into an in-memory tar (the fake
// replicas don't parse ELF, so neither must the corpus).
func bulkTar(t *testing.T, images [][]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw := tar.NewWriter(&buf)
	for i, img := range images {
		if err := tw.WriteHeader(&tar.Header{
			Name: fmt.Sprintf("bin-%03d", i), Mode: 0o644, Size: int64(len(img)),
		}); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.Write(img); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRouterBulk runs a bulk job through the router: every binary must
// dispatch to a replica via the consistent-hash ring (each inferred
// exactly once, spread across the fleet) and the queue summary must show
// up in /v1/fleet.
func TestRouterBulk(t *testing.T) {
	reps := []*fakeReplica{newFakeReplica(t, "a"), newFakeReplica(t, "b")}
	rt := startRouter(t, Config{
		Replicas:      []string{reps[0].srv.URL, reps[1].srv.URL},
		ProbeInterval: 20 * time.Millisecond,
		BulkDir:       t.TempDir(),
		BulkWorkers:   2,
	})

	// The ring's arcs follow the replicas' random ports, so a fixed image
	// set can land wholly on one shard: the last slot goes to an image
	// the so-far idle replica owns, which makes the job span both shards.
	const n = 12
	var images [][]byte
	var want [2]uint64
	for i := 0; len(images) < n; i++ {
		img := []byte(fmt.Sprintf("bulk-image-%d-%s", i, bytes.Repeat([]byte("q"), 40)))
		key, _ := imageKey(img)
		home := rt.ring.home(key)
		if len(images) == n-1 && want[1-home] == 0 {
			continue
		}
		images = append(images, img)
		want[home]++
	}
	resp, err := http.Post("http://"+rt.Addr+"/v1/bulk", "application/x-tar",
		bytes.NewReader(bulkTar(t, images)))
	if err != nil {
		t.Fatal(err)
	}
	var sub bulkq.SubmitResult
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: code=%d err=%v", resp.StatusCode, err)
	}

	deadline := time.Now().Add(30 * time.Second)
	var st bulkq.JobStatus
	for {
		resp, err := http.Get("http://" + rt.Addr + "/v1/bulk/" + sub.Job.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.State == "done" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("bulk job never finished: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.Done != n || st.Failed != 0 {
		t.Fatalf("final status: %+v", st)
	}

	// Each binary was dispatched exactly once, to its ring owner.
	ia, ib := reps[0].infers.Load(), reps[1].infers.Load()
	if ia != want[0] || ib != want[1] {
		t.Fatalf("replicas saw a=%d b=%d inferences, ring owners want a=%d b=%d", ia, ib, want[0], want[1])
	}

	// Results carry the owning replica's model tag.
	resp, err = http.Get("http://" + rt.Addr + "/v1/bulk/" + sub.Job.ID + "/results")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	lines := 0
	for {
		var rec bulkq.ResultRecord
		if err := dec.Decode(&rec); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		lines++
		if rec.State != "done" || (rec.Model != "fake-a" && rec.Model != "fake-b") {
			t.Fatalf("result: %+v", rec)
		}
	}
	if lines != n {
		t.Fatalf("results: %d lines, want %d", lines, n)
	}

	// /v1/fleet surfaces the queue summary.
	resp, err = http.Get("http://" + rt.Addr + "/v1/fleet")
	if err != nil {
		t.Fatal(err)
	}
	var fleetSt Status
	err = json.NewDecoder(resp.Body).Decode(&fleetSt)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if fleetSt.Bulk == nil || fleetSt.Bulk.Jobs != 1 || fleetSt.Bulk.ByState["done"] != 1 {
		t.Fatalf("/v1/fleet bulk summary: %+v", fleetSt.Bulk)
	}
}
