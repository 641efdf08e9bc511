package datasets

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"runtime"
	"testing"

	"qbs/internal/graph"
)

// The analogs are specified by (key, scale, seed): a faster way to
// produce one may not change one arc of it. These are SHA-256 hashes of
// the CSR arrays, recorded at the commit before the linear-time CSR
// constructor replaced the sort-based builders (3b3689b) and never
// regenerated since.
const parentFingerprintScale = 0.25

// parentUndirected[key] hashes (offsets, adj) of Generate(0.25).
var parentUndirected = map[string]string{
	"DO": "8142a711bdd69b99e37e80b624ec2ac7e2419bf30d036b93725627e294927cd1",
	"DB": "88a85a2a6e3711ef02b923cba7d6b957769f1432f798e78b53945d1086054937",
	"YT": "7e7b5992c98aec688d0b139d386825dc5343092be4e9e0fbb25a4998284256dd",
	"WK": "fb3a547f56a3f9d40d41734570ff860546e1ae1982ec2356a8c6b95d10afa32b",
	"SK": "33b57ea6416fe4d106bd967d715efbd4d0577c704af5d7ff81ad9e7cc147c5d6",
	"BA": "4122b0be1432b9048c09625b59510fbc5799d62ac30db16196d8e774b2c49a05",
	"LJ": "0f4e2d45c7a507bbb74a30241caab80839ab3d3df3f37c0c9bca5e5784b69274",
	"OR": "fe7d308cb51feda5de6965090d6ac2b7d44f8398bcd0e9e7e171a48649d46f9d",
	"TW": "ec210a6c00a76af246fcc60ee440b292db004e55065b9276674e4410db5e8fbd",
	"FR": "7d907b076f081529e67458fa3b0d6a0f9a47bdf62cb049fdda8269e5fe2c2fc7",
	"UK": "822e88fc7f28f3c5f12bdb20421cc7f61e6231791756c673dba02a4f2facee9b",
	"CW": "92cde083d5aa1445ef1c0b1ab3bbe5c875c346fdd6bbe0f0b3cd54c2a92b4f63",
}

// parentDirected[key] hashes (outOff, out, inOff, in) of
// GenerateDirected(0.25).
var parentDirected = map[string]string{
	"DO": "d06a21876b8eb3f126545e632ca4e771a78a1bb5d63e2b127047dd0cdf894670",
	"DB": "a3e77c9ff1bd608fed9a322bc116ee075b9cb6607d9e5b6b850d82926324c701",
	"YT": "8614fc9d9e59a74b108bc577cc1096cc9f49beb950f6dc098dd7ac7c97a7b226",
	"WK": "f52ea9f64a14ee84995ac34ccd99938016f0c9a86cdbbd749cd8234db24c3ee7",
	"SK": "97a33464eedc007b74d422e945ed7287f9f79527522e334873efe8c9ed9afe52",
	"BA": "48aa7e72665062c86ec43a81689b44bbfc925f539c56f4c86acdbd678ac0e61c",
	"LJ": "2b5ebc996c9a4655681421059183dee36345888de1d51c1d252fc9b80f89e1bc",
	"OR": "b6d1df0a0b583e50dbc9badbcc569fbde8defb9f2afa81332d9c33d90e508e2b",
	"TW": "5882f42390d9a5121a52b3cf98bedd2b1e08117f1f11f8f3045c871059f7bc02",
	"FR": "c58d8903b0bffc175c9abc2f8a11920ae527dcfc83bef31eb13d6dcb554ae6aa",
	"UK": "4902174491bf281bc50ec29e90548abd7dd88fb8b0d124a0ad05a495c3cc2a2f",
	"CW": "a6bbfb360a73e5ede2eee325c289f10be33cf71032245f8f1e6d990940f32aee",
}

const (
	// FR×0.5 rejects ≈ 730 duplicate draws, so the generator's
	// accept/reject decision is part of what the hash pins.
	parentFRHalf = "2f81943f5123b5b523bb9092d02766b9ec8cfccef318dfcad59b15153925ac3b"
	// graph.DirectedErdosRenyi(20000, 400000, 7).
	parentDirectedER = "8cdb7a5cf63a2abe1aa44bb48ae265fd9800071cb65b77c8a2ce070427490b65"
)

func hashCSR(offsets []int64, adj []graph.V, more ...any) string {
	h := sha256.New()
	for _, a := range append([]any{offsets, adj}, more...) {
		if err := binary.Write(h, binary.LittleEndian, a); err != nil {
			panic(err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func hashGraph(g *graph.Graph) string { return hashCSR(g.CSR()) }

func hashDiGraph(g *graph.DiGraph) string {
	outOff, out, inOff, in := g.CSR()
	return hashCSR(outOff, out, inOff, in)
}

// TestAnalogFingerprints regenerates every pinned graph at two build
// widths: the bytes are a function of (key, scale, seed) alone.
func TestAnalogFingerprints(t *testing.T) {
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, spec := range All() {
			if got := hashGraph(spec.Generate(parentFingerprintScale)); got != parentUndirected[spec.Key] {
				t.Errorf("GOMAXPROCS=%d %s undirected: got %s", procs, spec.Key, got)
			}
			if got := hashDiGraph(spec.GenerateDirected(parentFingerprintScale)); got != parentDirected[spec.Key] {
				t.Errorf("GOMAXPROCS=%d %s directed: got %s", procs, spec.Key, got)
			}
		}
		fr, err := ByKey("FR")
		if err != nil {
			t.Fatal(err)
		}
		if got := hashGraph(fr.Generate(0.5)); got != parentFRHalf {
			t.Errorf("GOMAXPROCS=%d FR x0.5: got %s", procs, got)
		}
		if got := hashDiGraph(graph.DirectedErdosRenyi(20000, 400000, 7)); got != parentDirectedER {
			t.Errorf("GOMAXPROCS=%d DirectedErdosRenyi(20000, 400000, 7): got %s", procs, got)
		}
		runtime.GOMAXPROCS(prev)
	}
}
