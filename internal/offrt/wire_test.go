package offrt

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func TestMessageRoundTrip(t *testing.T) {
	page := make([]byte, mem.PageSize)
	for i := range page {
		page[i] = byte(i * 7)
	}
	msgs := []*Message{
		{Kind: MsgOffloadRequest, TaskID: 3, SP: 0x7FFF_E000,
			Args:      []uint64{1, 0xDEADBEEF, 1 << 62},
			PageTable: []uint32{1, 2, 99},
			Pages:     []PageRecord{{PN: 5, Data: page}}},
		{Kind: MsgPageRequest, Addr: 0x2000_4000},
		{Kind: MsgPageData, Pages: []PageRecord{{PN: 7, Data: page}}},
		{Kind: MsgRemoteWrite, Data: []byte("score 42\n")},
		{Kind: MsgRemoteOpen, Data: []byte("cells.net")},
		{Kind: MsgRemoteOpenResp, FD: 3},
		{Kind: MsgRemoteRead, FD: 3, N: 512},
		{Kind: MsgRemoteReadResp, Data: bytes.Repeat([]byte{9}, 512)},
		{Kind: MsgRemoteClose, FD: 3},
		{Kind: MsgFinalize, TaskID: 3, Ret: 0xFFFF_FFFF_FFFF_FFFE,
			Pages: []PageRecord{{PN: 8, Data: page}, {PN: 12, Data: page}}},
		{Kind: MsgShutdown},
	}
	for _, m := range msgs {
		enc := m.Encode()
		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("%v: %v", m.Kind, err)
		}
		if got.Kind != m.Kind || got.TaskID != m.TaskID || got.SP != m.SP ||
			got.Addr != m.Addr || got.FD != m.FD || got.N != m.N || got.Ret != m.Ret {
			t.Errorf("%v: scalar fields drifted: %+v vs %+v", m.Kind, got, m)
		}
		if len(got.Args) != len(m.Args) || len(got.PageTable) != len(m.PageTable) ||
			len(got.Pages) != len(m.Pages) || !bytes.Equal(got.Data, m.Data) {
			t.Errorf("%v: payload drifted", m.Kind)
		}
		for i := range m.Pages {
			if got.Pages[i].PN != m.Pages[i].PN || !bytes.Equal(got.Pages[i].Data, m.Pages[i].Data) {
				t.Errorf("%v: page %d drifted", m.Kind, i)
			}
		}
	}
}

func TestMessageRoundTripProperty(t *testing.T) {
	check := func(task int32, sp uint32, args []uint64, pt []uint32, data []byte) bool {
		if len(args) > 256 {
			args = args[:256]
		}
		if len(pt) > 1024 {
			pt = pt[:1024]
		}
		m := &Message{Kind: MsgOffloadRequest, TaskID: task, SP: sp,
			Args: args, PageTable: pt, Data: data}
		got, err := Decode(m.Encode())
		if err != nil {
			return false
		}
		if got.TaskID != task || got.SP != sp || len(got.Args) != len(args) ||
			len(got.PageTable) != len(pt) || !bytes.Equal(got.Data, data) {
			return false
		}
		for i := range args {
			if got.Args[i] != args[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	m := &Message{Kind: MsgFinalize, Ret: 7}
	enc := m.Encode()

	if _, err := Decode(enc[:2]); err == nil {
		t.Error("short buffer accepted")
	}
	bad := append([]byte(nil), enc...)
	bad[0] ^= 0xFF // break the length prefix
	if _, err := Decode(bad); err == nil {
		t.Error("broken length prefix accepted")
	}
	trunc := enc[:len(enc)-3]
	if _, err := Decode(trunc); err == nil {
		t.Error("truncated body accepted")
	}
}

func TestCompressDecompressPages(t *testing.T) {
	// A repetitive page compresses well and restores exactly.
	page := bytes.Repeat([]byte{0x11, 0x22}, mem.PageSize/2)
	m := &Message{Kind: MsgFinalize,
		Pages: []PageRecord{{PN: 4, Data: page}, {PN: 9, Data: page}}}
	raw, err := m.CompressPages()
	if err != nil {
		t.Fatal(err)
	}
	if raw != 2*(mem.PageSize+4) {
		t.Errorf("raw size %d, want %d", raw, 2*(mem.PageSize+4))
	}
	if int64(len(m.Data)) >= raw {
		t.Errorf("compression did not shrink repetitive pages: %d >= %d", len(m.Data), raw)
	}
	// Cross the wire and restore.
	got, err := Decode(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	pages, err := got.DecompressPages()
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) != 2 || pages[0].PN != 4 || pages[1].PN != 9 {
		t.Fatalf("page set drifted: %+v", pages)
	}
	for _, p := range pages {
		if !bytes.Equal(p.Data, page) {
			t.Error("page content drifted through compression")
		}
	}
}

func TestDecompressRejectsGarbage(t *testing.T) {
	m := &Message{Kind: MsgFinalize, Compressed: true, Data: []byte("not deflate")}
	if _, err := m.DecompressPages(); err == nil {
		t.Error("garbage payload accepted")
	}
}

func TestWireSizeTracksPayload(t *testing.T) {
	small := (&Message{Kind: MsgRemoteWrite, Data: []byte("x")}).WireSize()
	big := (&Message{Kind: MsgRemoteWrite, Data: bytes.Repeat([]byte{1}, 4096)}).WireSize()
	if big-small != 4095 {
		t.Errorf("payload delta = %d, want 4095", big-small)
	}
	if small > 64 {
		t.Errorf("envelope overhead %d bytes, want compact (<64)", small)
	}
}

// TestWireSizeMatchesEncode checks WireSize against the encoder over
// seeded random messages: empty and nil slices, short pages the encoder
// pads, over-long pages it cuts, and compressed page payloads.
func TestWireSizeMatchesEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	pageLens := []int{0, 1, mem.PageSize / 2, mem.PageSize - 1, mem.PageSize, mem.PageSize + 7}
	var compressed int
	for i := 0; i < 300; i++ {
		m := &Message{Kind: MsgKind(1 + rng.Intn(int(MsgCheckpoint))), TaskID: rng.Int31(),
			SP: rng.Uint32(), Addr: rng.Uint32(), FD: rng.Int31(), N: rng.Int31(), Ret: rng.Uint64()}
		if n := rng.Intn(4); n > 0 {
			m.Args = make([]uint64, n-1) // n == 1: empty, non-nil
		}
		if n := rng.Intn(5); n > 0 {
			m.PageTable = make([]uint32, n-1)
		}
		if n := rng.Intn(4); n > 0 {
			m.Pages = make([]PageRecord, n-1)
			for j := range m.Pages {
				m.Pages[j] = PageRecord{PN: rng.Uint32(), Data: make([]byte, pageLens[rng.Intn(len(pageLens))])}
				rng.Read(m.Pages[j].Data)
			}
		}
		if n := rng.Intn(3); n > 0 {
			m.Data = make([]byte, rng.Intn(300)*(n-1))
			rng.Read(m.Data)
		}
		if len(m.Pages) > 0 && rng.Intn(3) == 0 {
			if _, err := m.CompressPages(); err != nil {
				t.Fatal(err)
			}
			compressed++
		}
		if got, want := m.WireSize(), int64(len(m.Encode())); got != want {
			t.Fatalf("message %d (%d args, %d table, %d pages, %d data, compressed %v): WireSize %d, encoded %d",
				i, len(m.Args), len(m.PageTable), len(m.Pages), len(m.Data), m.Compressed, got, want)
		}
	}
	if compressed == 0 {
		t.Error("no compressed message drawn")
	}
}

func TestMsgKindString(t *testing.T) {
	if MsgFinalize.String() != "finalize" || MsgKind(99).String() == "" {
		t.Error("MsgKind.String broken")
	}
}

func TestDecodeRejectsBitFlip(t *testing.T) {
	m := &Message{Kind: MsgRemoteWrite, Data: []byte("score 42\n")}
	enc := m.Encode()
	// Flip every body byte in turn: the CRC must catch each single-bit error.
	for i := 4; i < len(enc)-4; i++ {
		bad := append([]byte(nil), enc...)
		bad[i] ^= 0x40
		if _, err := Decode(bad); err == nil {
			t.Fatalf("bit flip at offset %d accepted", i)
		}
	}
	// Flipping the checksum itself must fail too.
	bad := append([]byte(nil), enc...)
	bad[len(bad)-1] ^= 0x01
	if _, err := Decode(bad); err == nil {
		t.Fatal("broken checksum accepted")
	}
}

func TestDecodeRejectsMalformedStructure(t *testing.T) {
	reseal := func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[4:len(b)-4]))
		binary.LittleEndian.PutUint32(b[:4], uint32(len(b)-4))
		return b
	}
	base := (&Message{Kind: MsgFinalize, Ret: 7}).Encode()

	// Unknown kind with a valid checksum.
	bad := append([]byte(nil), base...)
	bad[4] = byte(MsgCheckpoint) + 1
	if _, err := Decode(reseal(bad)); err == nil {
		t.Error("unknown kind accepted")
	}
	bad = append([]byte(nil), base...)
	bad[4] = 0
	if _, err := Decode(reseal(bad)); err == nil {
		t.Error("zero kind accepted")
	}

	// Element counts exceeding the bytes present (valid checksum, hostile
	// counts): args, page table, pages.
	for _, off := range []int{4 + 1 + 4 + 4} { // nArgs offset after kind+task+sp
		bad = append([]byte(nil), base...)
		binary.LittleEndian.PutUint32(bad[off:], 1<<15)
		if _, err := Decode(reseal(bad)); err == nil {
			t.Errorf("hostile count at offset %d accepted", off)
		}
	}
}
