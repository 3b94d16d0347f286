package msgcodec

import (
	"bytes"
	"reflect"
	"testing"
	"time"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	cases := [][]string{
		nil,
		{},
		{"task.000001"},
		{"task.000001", "task.000002", "task.000003"},
		{"task.recov.a", "task.recov.flaky"},
		// Strings are length-prefixed bytes: quotes, backslashes, control
		// chars, non-ASCII and invalid UTF-8 round-trip exactly.
		{`task."quoted"`, `back\slash`, "tab\there", "unicode-日本語", "bad\xff utf8"},
	}
	for _, uids := range cases {
		got, err := DecodeTaskUIDs(FormatBinary.EncodeTaskUIDs(uids))
		if err != nil {
			t.Fatalf("round trip %q: %v", uids, err)
		}
		if len(got) != len(uids) || (len(uids) > 0 && !reflect.DeepEqual(got, uids)) {
			t.Fatalf("round trip %q: got %q", uids, got)
		}
	}
}

// TestTaskUIDsBinaryLayout pins the version-1 frame layout byte for byte:
// journals and durable queues written by earlier builds must keep decoding.
func TestTaskUIDsBinaryLayout(t *testing.T) {
	want := []byte{Magic, 1, FrameTaskUIDs, 2, 1, 'a', 2, 'b', 'c'}
	if got := FormatBinary.EncodeTaskUIDs([]string{"a", "bc"}); !bytes.Equal(got, want) {
		t.Fatalf("frame layout drifted: got %x want %x", got, want)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodeTaskUIDs([]byte(`{"task_uids":`)); err == nil {
		t.Fatal("truncated message accepted")
	}
	if _, err := DecodeTaskUIDs([]byte(`not json`)); err == nil {
		t.Fatal("non-JSON message accepted")
	}
	// Binary frames of the wrong type, version or length must error too.
	if _, err := DecodeTaskUIDs([]byte{Magic}); err == nil {
		t.Fatal("truncated frame accepted")
	}
	if _, err := DecodeTaskUIDs([]byte{Magic, Version + 1, FrameTaskUIDs}); err == nil {
		t.Fatal("future version accepted")
	}
	if _, err := DecodeTaskUIDs(FormatBinary.EncodeSyncAck(SyncAck{Seq: 1, OK: true})); err == nil {
		t.Fatal("cross-type frame accepted")
	}
}

func TestEncodeSingle(t *testing.T) {
	got, err := DecodeTaskUIDs(FormatBinary.EncodeTaskUID("task.42"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "task.42" {
		t.Fatalf("got %q", got)
	}
}

func TestSyncFrameRoundTrip(t *testing.T) {
	frames := []SyncFrame{
		{Reply: "sync-ack-enq", Seq: 7, Reqs: []SyncRequest{
			{Entity: "stage", UID: "stage.0001", Path: []string{"SCHEDULING"}},
			{Entity: "task", UIDs: []string{"t.1", "t.2", "t.3"}, Path: []string{"SCHEDULING", "SCHEDULED"}},
		}},
		{Reply: "sync-ack-emgr", Seq: 2, Reqs: []SyncRequest{
			{Entity: "task", UIDs: []string{"t.1", "t.2"}, Path: []string{"SUBMITTING", "SUBMITTED"}},
			{Entity: "task", UIDs: []string{"t.3"}, Path: []string{"SUBMITTED"}},
		}},
		{Reply: "sync-ack-deq", Seq: 1, Reqs: []SyncRequest{
			{Entity: "task", UIDs: []string{"t.9"}, Path: []string{"EXECUTED", "FAILED"}, ExitCode: -1, ExecErr: "rts failure"},
			{Entity: "task", UID: "t.8", Path: []string{"EXECUTED", "FAILED", "SCHEDULING", "SCHEDULED"}},
		}},
		{Reply: "sync-ack-ctl", Seq: 3, Reqs: []SyncRequest{
			{Entity: "pipeline", UID: "pipe.0001"}, // empty path: the Synchronizer rejects it, the codec carries it
		}},
		{Reply: "q", Seq: 0, Reqs: []SyncRequest{}},
	}
	for _, fr := range frames {
		got, err := DecodeSyncFrame(FormatBinary.EncodeSyncFrame(fr))
		if err != nil {
			t.Fatal(err)
		}
		if got.Reply != fr.Reply || got.Seq != fr.Seq || len(got.Reqs) != len(fr.Reqs) {
			t.Fatalf("frame header drifted: %+v vs %+v", got, fr)
		}
		for i := range fr.Reqs {
			if !reflect.DeepEqual(got.Reqs[i], fr.Reqs[i]) {
				t.Fatalf("req %d: got %+v want %+v", i, got.Reqs[i], fr.Reqs[i])
			}
		}
	}
}

func TestSyncAckRoundTrip(t *testing.T) {
	acks := []SyncAck{
		{Seq: 42, OK: true},
		{Seq: 1, OK: false, Err: "core: unknown task t.404"},
	}
	for _, ack := range acks {
		got, err := DecodeSyncAck(FormatBinary.EncodeSyncAck(ack))
		if err != nil {
			t.Fatal(err)
		}
		if got != ack {
			t.Fatalf("got %+v want %+v", got, ack)
		}
	}
}

func TestTaskResultsRoundTrip(t *testing.T) {
	now := time.Unix(0, time.Now().UnixNano())
	batches := [][]TaskResult{
		nil,
		{{UID: "t.1", ExitCode: 0, Started: now, Finished: now.Add(time.Second), StagingTime: 3 * time.Millisecond}},
		{
			{UID: "t.2", ExitCode: 137, Error: "oom"},
			{UID: "t.3", Canceled: true},
		},
	}
	for _, rs := range batches {
		body, err := FormatBinary.EncodeTaskResults(rs)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeTaskResults(body)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(rs) {
			t.Fatalf("got %d results want %d", len(got), len(rs))
		}
		for i := range rs {
			g, w := got[i], rs[i]
			if g.UID != w.UID || g.ExitCode != w.ExitCode || g.Error != w.Error ||
				g.Canceled != w.Canceled || !g.Started.Equal(w.Started) ||
				!g.Finished.Equal(w.Finished) || g.StagingTime != w.StagingTime {
				t.Fatalf("result %d: got %+v want %+v", i, g, w)
			}
		}
	}
}

// TestTaskResultsJSONCompat pins the upgrade boundary: a done-queue body
// in the JSON shape an older build wrote is rejected, not misparsed.
func TestTaskResultsJSONCompat(t *testing.T) {
	legacy := []byte(`[{"UID":"t.1","ExitCode":2,"Error":"boom","Canceled":false}]`)
	if rs, err := DecodeTaskResults(legacy); err == nil {
		t.Fatalf("legacy JSON result batch accepted: %+v", rs)
	}
}

func TestFig6TaskRoundTrip(t *testing.T) {
	tasks := []Fig6Task{
		{UID: "task.000001.000002", Executable: "sleep", Arguments: []string{"0"}, Cores: 1},
		{UID: "t", Executable: "md run", Arguments: nil, Cores: 128},
		{UID: `q"uote`, Executable: "x", Arguments: []string{"a", "日本"}, Cores: 0},
	}
	for _, task := range tasks {
		var got Fig6Task
		if err := DecodeFig6Task(FormatBinary.EncodeFig6Task(&task), &got); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, task) {
			t.Fatalf("got %+v want %+v", got, task)
		}
	}
}

// TestFig6TaskJSONShape pins the upgrade boundary: a prototype task body
// in the JSON shape an older build wrote is rejected, not misparsed.
func TestFig6TaskJSONShape(t *testing.T) {
	legacy := []byte(`{"uid":"task.1","executable":"sleep","arguments":["0"],"cores":4}`)
	var got Fig6Task
	if err := DecodeFig6Task(legacy, &got); err == nil {
		t.Fatalf("legacy JSON task body accepted: %+v", got)
	}
}

func TestStateRecRoundTrip(t *testing.T) {
	got, err := DecodeStateRec(FormatBinary.EncodeStateRec("task", "task.0042", "DONE"))
	if err != nil {
		t.Fatal(err)
	}
	want := StateRec{Entity: "task", UID: "task.0042", State: "DONE"}
	if got != want {
		t.Fatalf("got %+v want %+v", got, want)
	}
	if sr, err := DecodeStateRec([]byte(`{"entity":"stage","uid":"s.1","state":"FAILED"}`)); err == nil {
		t.Fatalf("legacy JSON state record accepted: %+v", sr)
	}
}

func TestStoreRecRoundTrip(t *testing.T) {
	cases := []StoreRec{
		{Op: "push", UIDs: []string{"task.000001"}},
		{Op: "pull", UIDs: []string{"task.000001", "task.000002", "task.000003"}},
		{Op: "push", UIDs: nil},
		{Op: "pull", UIDs: []string{`uid "quoted"`, "日本"}},
	}
	for _, rec := range cases {
		got, err := DecodeStoreRec(FormatBinary.EncodeStoreRec(rec.Op, rec.UIDs))
		if err != nil {
			t.Fatal(err)
		}
		if got.Op != rec.Op || len(got.UIDs) != len(rec.UIDs) ||
			(len(rec.UIDs) > 0 && !reflect.DeepEqual(got.UIDs, rec.UIDs)) {
			t.Fatalf("got %+v want %+v", got, rec)
		}
	}
}

// TestStoreRecJSONCompat pins the upgrade boundary: a store audit record
// in the generic-JSON shape older builds journaled is rejected, not
// misparsed.
func TestStoreRecJSONCompat(t *testing.T) {
	legacy := []byte(`{"uids":["task.1","task.2"],"op":"pull"}`)
	if rec, err := DecodeStoreRec(legacy); err == nil {
		t.Fatalf("legacy JSON store record accepted: %+v", rec)
	}
}

func TestJournalRecRoundTrip(t *testing.T) {
	data := FormatBinary.EncodeStateRec("task", "t.1", "DONE")
	payload := AppendJournalRec(nil, 99, "state", data)
	seq, typ, got, err := DecodeJournalRec(payload)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 99 || typ != "state" || !reflect.DeepEqual(got, data) {
		t.Fatalf("journal record round trip: seq=%d typ=%q", seq, typ)
	}
}

func TestBrokerRecsRoundTrip(t *testing.T) {
	f := FormatBinary
	p, err := DecodeBrokerPublish(f.EncodeBrokerPublish("pending", 7, []byte("body")))
	if err != nil || p.Queue != "pending" || p.ID != 7 || string(p.Body) != "body" {
		t.Fatalf("publish round trip: %+v, %v", p, err)
	}

	a, err := DecodeBrokerAck(f.EncodeBrokerAck("pending", 7))
	if err != nil || a.Queue != "pending" || a.ID != 7 {
		t.Fatalf("ack round trip: %+v, %v", a, err)
	}

	msgs := []BrokerMsg{{ID: 1, Body: []byte("a")}, {ID: 2, Body: []byte("bb")}}
	pb, err := DecodeBrokerPublishBatch(f.EncodeBrokerPublishBatch("done", msgs))
	if err != nil || pb.Queue != "done" || !reflect.DeepEqual(pb.Msgs, msgs) {
		t.Fatalf("publish batch round trip: %+v, %v", pb, err)
	}

	ab, err := DecodeBrokerAckBatch(f.EncodeBrokerAckBatch("done", []uint64{1, 2, 3}))
	if err != nil || ab.Queue != "done" || !reflect.DeepEqual(ab.IDs, []uint64{1, 2, 3}) {
		t.Fatalf("ack batch round trip: %+v, %v", ab, err)
	}
}

// FuzzDecodeFrame throws arbitrary bytes at every decoder: malformed,
// truncated or type-confused frames must error cleanly — never panic,
// never over-allocate from a hostile length prefix.
func FuzzDecodeFrame(f *testing.F) {
	f.Add(FormatBinary.EncodeTaskUIDs([]string{"task.1", "task.2"}))
	f.Add([]byte(`{"task_uids":["task.1"]}`)) // legacy JSON body
	f.Add(FormatBinary.EncodeSyncFrame(SyncFrame{Reply: "q", Seq: 3, Reqs: []SyncRequest{
		{Entity: "task", UIDs: []string{"a", "b"}, Path: []string{"DONE"}}}}))
	f.Add(FormatBinary.EncodeSyncFrame(SyncFrame{Reply: "q", Seq: 4, Reqs: []SyncRequest{
		{Entity: "stage", UID: "s", Path: []string{"SCHEDULING"}},
		{Entity: "task", UIDs: []string{"a", "b"}, Path: []string{"EXECUTED", "DONE"}, ExitCode: 2, ExecErr: "x"}}}))
	f.Add(FormatBinary.EncodeSyncAck(SyncAck{Seq: 9, OK: true}))
	if b, err := FormatBinary.EncodeTaskResults([]TaskResult{{UID: "t", ExitCode: 1, Started: time.Unix(3, 4)}}); err == nil {
		f.Add(b)
	}
	f.Add(FormatBinary.EncodeFig6Task(&Fig6Task{UID: "t", Executable: "sleep", Arguments: []string{"0"}, Cores: 1}))
	f.Add(FormatBinary.EncodeStateRec("task", "t.1", "DONE"))
	f.Add(FormatBinary.EncodeStoreRec("push", []string{"task.1", "task.2"}))
	f.Add(FormatBinary.EncodeSnapshot(Snapshot{Watermark: 9, Entries: []SnapEntry{
		{Entity: "task", UID: "t.1", State: "DONE"}}}))
	f.Add(FormatBinary.EncodeSegmentHeader(SegmentHeader{Index: 2, BaseSeq: 17}))
	f.Add(AppendJournalRec(nil, 1, "state", []byte("x")))
	f.Add(FormatBinary.EncodeBrokerPublishBatch("q", []BrokerMsg{{ID: 1, Body: []byte("b")}}))
	// Truncations and corruptions of a valid frame.
	valid := FormatBinary.EncodeTaskUIDs([]string{"task.000001", "task.000002"})
	for i := 0; i < len(valid); i += 3 {
		f.Add(valid[:i])
	}
	f.Add([]byte{Magic, Version, FrameTaskUIDs, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01})

	f.Fuzz(func(t *testing.T, body []byte) {
		DecodeTaskUIDs(body)              //nolint:errcheck
		DecodeSyncFrame(body)             //nolint:errcheck
		DecodeSyncAck(body)               //nolint:errcheck
		DecodeTaskResults(body)           //nolint:errcheck
		DecodeFig6Task(body, &Fig6Task{}) //nolint:errcheck
		DecodeStateRec(body)              //nolint:errcheck
		DecodeStoreRec(body)              //nolint:errcheck
		DecodeJournalRec(body)            //nolint:errcheck
		DecodeBrokerPublish(body)         //nolint:errcheck
		DecodeBrokerAck(body)             //nolint:errcheck
		DecodeBrokerPublishBatch(body)    //nolint:errcheck
		DecodeBrokerAckBatch(body)        //nolint:errcheck
		DecodeSnapshot(body)              //nolint:errcheck
		DecodeSegmentHeader(body)         //nolint:errcheck
	})
}
