package main

import "fmt"

// pinnedSeed is the seed whose outputs are pinned below.
const pinnedSeed = 1

// pinnedGA holds each chip's per-generation digests at pinnedSeed.
var pinnedGA = map[string][]uint64{
	"a72": {
		0x086e78539d4a350f, 0xa93884b1f016acab, 0x806f8005315b3c02, 0xba6171f2b6895028,
		0x8d67a17e73f9c053, 0xc80672b52e2d07e2, 0xaa732b5c06cc43fa, 0x50eaf9bc015acf74,
		0x7e3e681e03bbf659, 0x5f483f676c08e172, 0x793ef106682f00cc, 0x3448e12999e8d2cd,
		0x520986abd1dfdfe1, 0x00bc5aab174b64d9, 0xb9d5308307d13170, 0xf090bd98eea4a951,
		0x63af5b22059c6304, 0xb95c2206a5fd7acf, 0x031094c560f378f8, 0x0972dd5a46ccc233,
		0x02d304397d3e8b65, 0x35ff789115215e37, 0x06310c041a3046b8, 0x4b04409c58f403f5,
		0x9a3752be27e6624b, 0x320867f6bb59dc76, 0xe924a8657442cf82, 0x84da7500485dd7f6,
		0x4f734604664654f2, 0xd66b2a83c0e1e0b8, 0x5ff88a5d6c95bc25, 0x05706364310d0f24,
		0xda7f6a7d7afc7282, 0xf60a04b71e8e5122, 0xc1c260b6499c2a1b, 0x4d635124948c3de5,
		0x996a4c1fe8f27876, 0xedebbda80e8e6d08, 0x5bfecab050d5b1c8, 0xcb0270efd730e5e5,
		0xd90920281534c516, 0x99b7376fc34577e5, 0x1865569a5fb903dc, 0xb64629ea2eaff1af,
		0xbf74269bd00d3170, 0xf0f5f6a6363e2967, 0x58629e336c1542a9, 0x17766bbaf0c26f00,
		0xe010da71ef4d7c63, 0x2e1f4425385977a5, 0xb3688d31ac5d9c0e, 0x714efa1c1eae6cad,
		0x7d6dce2da62221bc, 0x43be4a9f10e98cad, 0xf6d9101ad21c6efa, 0x9b8e29e4bcef8acd,
		0xf55dde32667b155f, 0x8d6600f589e73302, 0xa7753a27b15c851c, 0x657d96cdab82cc70,
	},
	"a53": {
		0x1f18944366d79f5f, 0xef29c058e077de4a, 0xc258ac25b3bbd13f, 0x8870e89e0059f7b4,
		0x51e1a389531bf38c, 0x9e022688e2c4da49, 0xdc88551b0a8a0944, 0x48f5336585eb4a2d,
		0xb59c255fa237aa44, 0x96a1bf89fee1d25b, 0x1c59ef06302e05df, 0xa58325dbd5d7d314,
		0xef72998cf9e41165, 0x7f35562a17e9a3e0, 0xab68185a34414906, 0xb98c1b7846af1a09,
		0x775aaabdc13beec7, 0x453e33103139b5c5, 0x76b981b8aa33f06e, 0x02c09fec7d9e69c7,
		0x395ab1f576fd840c, 0x8ed650856264baf2, 0xb58f90a6f9db61f3, 0xabdec06c8bd0b21f,
		0x35682e3dd1da9ca6, 0x54def4ef101c0def, 0x0b8e16a1cc750c6e, 0x181426a1c4fafb68,
		0xb01affcd9c6c70e3, 0x7b58361310f557ca, 0x17e504e0c3a4f182, 0x932e010c7ee90a20,
		0x2b8f0a26e0c209ee, 0x9e2a4ddc6c9f2216, 0x5c94fc4e11a0b74c, 0x03965dee1494b76f,
		0xe055ab4d71d4ab45, 0x4ef6a9169162070c, 0x2db52690481014a4, 0x90c4a919800bd92d,
		0x3c6f81464eda3f8f, 0xab85742a9dac86c3, 0x9aeecf24bf4238fe, 0x9a09303a59ee16cd,
		0x7c2b889fc3fa007d, 0x1c5e26e3df7f1765, 0x2e93a93830816960, 0xe3663cda1ee698be,
		0x9396102f4166d45d, 0xc9d4e93bf724d987, 0xbabae3e655132887, 0x9d312c16c002676c,
		0x09413e2d9301fe34, 0x50cc62451048f52c, 0x1235d03c08a85127, 0x1c5ac79cfb3159de,
		0xa852646a837e2981, 0x607b84cc29f1e9b5, 0x410f584cd7bd6df3, 0xafaf3ad7cef048d2,
	},
	"athlon": {
		0xf8314f55f64c261e, 0xb3d4ae3fe0eb3451, 0x00c42602c6639575, 0x3964d9d919826aba,
		0x6d1a21b09c23549e, 0x9bf3ee1a62d3178d, 0x0fbcbab897daf5cf, 0x1cd50527d1274267,
		0x5ebfa8baabf97d57, 0x9f737051787a8b51, 0x812686238b3f355a, 0xf9bd7fd16cc7e720,
		0x4f16e1a160ba6af8, 0x7e8a7b3b2d440cc9, 0x8a8a1235646c672b, 0x6fbfc7fb18aae8d3,
		0xeae88e17d17d071f, 0x4757a53accb6ae04, 0x3fd961ae09151b07, 0xa1da0571c2fd015e,
		0xe5eba53f239708ab, 0xb4e404fafe7e9e63, 0x96693772df2e30fe, 0xfd76fe94ecab4b54,
		0xfe2aff0da811d116, 0xa69beb18c5df7997, 0xa2efd0302f77a160, 0xdd41dcceba5ce774,
		0xacdc53b57936409b, 0xd19a0a7c997a20ff, 0x1bf7a8cbcbf63378, 0xfbade9bcb1fa00fb,
		0x952213083d808fa0, 0x810478400576f002, 0x3e7f0681c52f2bcd, 0x8a702c82c58be47e,
		0x6d2152d5bb5401b7, 0xfaf4ff9225178b3b, 0x5fa131159c6061c2, 0xa44e3e75acad2a46,
		0xc51dfc3dc78982b0, 0x8b8783318ad07119, 0x7d99ad04f6ca4908, 0x37f2ad1fd6fea66c,
		0xeb61f35213e59509, 0xb703bcf3e999ad27, 0x77c27786436405ee, 0x88b531099dfcec69,
		0x9e1342e231043451, 0xe1c49b6496b046ce, 0x1ec0ad9288237804, 0xb65be1f77e99283a,
		0x1b71c637633ebc56, 0xaa98046ce5634e1e, 0xd1a6b19068b1a70d, 0xb5647b32a35cba31,
		0xadb6a3dcc5b038df, 0x8b62ea47d74a82a0, 0x77dc36a730a73b9d, 0x52399032ae12238b,
	},
}

// pinnedOpsweep is the digest of one opsweep pass at pinnedSeed.
const pinnedOpsweep uint64 = 0x7cc0325a61b682aa

// printPins recomputes the pinned digests and prints them as Go source.
func printPins() error {
	e := &env{seed: pinnedSeed, jobs: 2}
	g := &gaVirus{}
	if err := g.setup(e); err != nil {
		return err
	}
	_ = g.reference(e) // it compares against the old pins, which may be stale
	fmt.Println("var pinnedGA = map[string][]uint64{")
	for i, c := range chips {
		fmt.Printf("\t%q: {", c.name)
		for j, d := range g.refs[i] {
			if j%4 == 0 {
				fmt.Print("\n\t\t")
			} else {
				fmt.Print(" ")
			}
			fmt.Printf("0x%016x,", d)
		}
		fmt.Println("\n\t},")
	}
	fmt.Println("}")
	o := &opSweep{}
	if err := o.setup(e); err != nil {
		return err
	}
	_ = o.reference(e)
	fmt.Printf("const pinnedOpsweep uint64 = 0x%016x\n", o.ref)
	return nil
}
