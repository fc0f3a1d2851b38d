"""numpy's PCG64 exponential and uniform draws, rebuilt from raw 64-bit words.

The generated direct-method loop (:mod:`repro.stochastic.codegen`) reads the
generator's PCG64 stream in blocks of raw words
(``bit_generator.random_raw(n)``) instead of calling
``Generator.exponential`` and ``Generator.random`` once per event, and
rebuilds both draws from those words exactly as numpy's C code computes them:

* ``random()`` is ``(w >> 11) * 2**-53`` (PCG64's ``next_double``);
* ``exponential(scale)`` is ``scale * x``, with ``x`` drawn by numpy's
  256-layer ziggurat (Marsaglia & Tsang, J. Stat. Softw. 5(8), 2000;
  ``random_standard_exponential``): ``ri = w >> 3``, layer ``k = ri & 255``,
  ``ri >>= 8``, and ``x = ri * WE[k]`` is accepted when ``ri < KE[k]``.
  Over 2,000,000 words 97.8% of first tries are accepted;
  :func:`exponential_rare` takes the other 2.2%.

None of that depends on the simulation's state, so :func:`decode_words`
does it for a whole block at once with a few numpy array operations, giving
two lists of Python floats: each word's first try at an exponential
(negative when rejected) and its uniform.  A draw is then a list read by
index, and one ``< 0.0`` test sends both a rejected first try and the end
of the block (the :data:`END` slot) to the rare branch.

This module owns every part of that: the tables, the decode, the rare-path
helper, the per-run :class:`WordBlock`, the statements a kernel inlines
(:data:`WORDS_LOAD`, :func:`draw_exponential`, :func:`draw_uniform`,
:data:`WORDS_STORE`) and the names they need (:func:`statement_namespace`).
A run makes one :class:`WordBlock`; each function drawing from it loads the
block into locals, draws, and stores it back in a ``finally``, so a block
fetched in one input segment serves the next.  Closing the block when the run
ends (or raises) steps the generator back over the words fetched but not
drawn, so it stands where numpy's own calls would have left it.  On a 2-vCPU
Xeon VM, fetching and decoding a block costs ~5-13 µs plus ~40-60 ns per word
(the two float lists are most of the per-word cost), and a run pays ~3-6 µs
once to read the generator's state and step it back.  A function sizes each
block from the draws it expects still to take (:func:`block_for`): the
direct-method loop asks for the rest of its segment, two words per event at
the current total (``2 * (t_stop - t) * total``), plus :data:`BLOCK_PAD`, so
a segment of a few events decodes a few dozen words, not hundreds, and a
segment whose total drifts refetches what is left instead of twice its last
block.  The words a segment fetched but did not draw are the next segment's
first.

The tables are numpy's ``ke_double``, ``we_double`` and ``fe_double``, copied
value for value from the ``_generator`` extension of numpy 2.4.6, where ``fe``
starts with the doubles 1.0 and 0.9381436808621747, ``we`` follows 2048
bytes later and ``ke`` 4096 bytes later.  Evaluating the ziggurat's defining
recurrence in double precision does not reproduce them, so they are copied,
not computed.  A numpy release could change them or the algorithm, and the
draws hold only for PCG64: callers take the block path for a PCG64
generator and only after :func:`block_draws_verified` has compared rebuilt
draws with numpy's own in the running process.
"""

from __future__ import annotations

import functools
import math
import warnings
from typing import Dict, List, Optional

import numpy as np

__all__ = [
    "KE",
    "WE",
    "FE",
    "R",
    "U53",
    "BLOCK_CAP",
    "BLOCK_PAD",
    "END",
    "decode_words",
    "exponential_rare",
    "WordBlock",
    "WORDS_LOAD",
    "WORDS_STORE",
    "block_for",
    "draw_exponential",
    "draw_uniform",
    "statement_namespace",
    "load_draw_pairs",
    "block_draws_verified",
]

#: numpy's ``ziggurat_exp_r``: where layer 0's rectangle ends and the tail
#: starts.
R = 7.6971174701310497140446280481

#: ``2**-53``: PCG64's ``next_double`` scales the top 53 bits of a word by it.
U53 = 1.0 / 9007199254740992.0

#: Raw words every block stops at.
BLOCK_CAP = 4096

#: Words a block sized from a draw count (:func:`block_for`) holds beyond it.
BLOCK_PAD = 8

#: The first-try slot one past a block's last word (see :func:`decode_words`):
#: negative, and apart from every rejected try's ``-1.0 - k``.
END = -0.5

#: Words appended when a rare draw runs past the end of its block.
_EXTRA_WORDS = 8

#: Draw pairs in the once-per-process self-check, and its seed: the first
#: 1000 pairs of this stream take the ziggurat's tail, its wedge test and a
#: wedge rejection.
CHECK_PAIRS = 1000
CHECK_SEED = 20170663

# The tables are text parsed once at import: as 768 separate numeric
# literals they would cost ~0.7 MiB of peak memory each time the module is
# compiled.  ``repr`` strings round-trip the doubles exactly.

_KE_TEXT = """
    1C5214272497C6 00000000000000 137D5BD79C317E 186EF58E3F3C10 1A9BB7320EB0AE
    1BD127F719447C 1C951D0F88651A 1D1BFE2D5C3972 1D7E5BD56B18B2 1DC934DD172C70
    1E0409DFAC9DC8 1E337B71D47836 1E5A8B177CB7A2 1E7B42096F046C 1E970DAF08AE3E
    1EAEF5B14EF09E 1EC3BD07B46556 1ED5F6F08799CE 1EE614AE6E5688 1EF46ECA361CD0
    1F014B76DDD4A4 1F0CE313A796B6 1F176369F1F77A 1F20F20C452570 1F29AE1951A874
    1F31B18FB95532 1F39125157C106 1F3FE2EB6E694C 1F463332D788FA 1F4C10BF1D3A0E
    1F51874C5C3322 1F56A109C3ECC0 1F5B66D9099996 1F5FE08210D08C 1F6414DD445772
    1F6809F6859678 1F6BC52A2B02E6 1F6F4B3D32E4F4 1F72A07190F13A 1F75C8974D09D6
    1F78C71B045CC0 1F7B9F12413FF4 1F7E5346079F8A 1F80E63BE21138 1F835A3DAD9162
    1F85B16056B912 1F87ED89B24262 1F8A10759374FA 1F8C1BBA3D39AC 1F8E10CC45D04A
    1F8FF102013E16 1F91BD968358E0 1F9377AC47AFD8 1F95204F8B64DA 1F96B878633892
    1F98410C968892 1F99BAE146BA80 1F9B26BC697F00 1F9C85561B717A 1F9DD759CFD802
    1F9F1D6761A1CE 1FA058140936C0 1FA187EB3A3338 1FA2AD6F6BC4FC 1FA3C91ACE0682
    1FA4DB5FEE6AA2 1FA5E4AA4D097C 1FA6E55EE46782 1FA7DDDCA51EC4 1FA8CE7CE6A874
    1FA9B793CE5FEE 1FAA9970ADB858 1FAB745E588232 1FAC48A3740584 1FAD1682BF9FE8
    1FADDE3B5782C0 1FAEA008F21D6C 1FAF5C2418B07E 1FB012C25B7A12 1FB0C41681DFF4
    1FB17050B6F1FA 1FB2179EB2963A 1FB2BA2BDFA84A 1FB358217F4E18 1FB3F1A6C9BE0C
    1FB486E10CACD6 1FB517F3C793FC 1FB5A500C5FDAA 1FB62E2837FE58 1FB6B388C9010A
    1FB7353FB50798 1FB7B368DC7DA8 1FB82E1ED6BA08 1FB8A57B0347F6 1FB919959A0F74
    1FB98A85BA7204 1FB9F861796F26 1FBA633DEEE286 1FBACB2F41EC16 1FBB3048B49144
    1FBB929CAEA4E2 1FBBF23CC8029E 1FBC4F39D22994 1FBCA9A3E140D4 1FBD018A548F9E
    1FBD56FBDE729C 1FBDAA068BD66A 1FBDFAB7CB3F40 1FBE491C7364DE 1FBE9540C9695E
    1FBEDF3086B128 1FBF26F6DE6174 1FBF6C9E828AE2 1FBFB031A904C4 1FBFF1BA0FFDB0
    1FC03141024588 1FC06ECF5B54B2 1FC0AA6D8B1426 1FC0E42399698A 1FC11BF9298A64
    1FC151F57D1942 1FC1861F770F4A 1FC1B87D9E74B4 1FC1E91620EA42 1FC217EED505DE
    1FC2450D3C83FE 1FC27076864FC2 1FC29A2F90630E 1FC2C23CE98046 1FC2E8A2D2C6B4
    1FC30D654122EC 1FC33087DE9C0E 1FC3520E0B7EC6 1FC371FADF66F8 1FC390512A2886
    1FC3AD137497FA 1FC3C844013348 1FC3E1E4CCAB40 1FC3F9F78E4DA8 1FC4107DB85060
    1FC4257877FD68 1FC438E8B5BFC6 1FC44ACF15112A 1FC45B2BF447E8 1FC469FF6C4504
    1FC477495001B2 1FC483092BFBB8 1FC48D3E457FF6 1FC495E799D21A 1FC49D03DD30B0
    1FC4A29179B432 1FC4A68E8E07FC 1FC4A8F8EBFB8C 1FC4A9CE16EA9E 1FC4A90B41FA34
    1FC4A6AD4E28A0 1FC4A2B0C82E74 1FC49D11E62DE2 1FC495CC852DF4 1FC48CDC265EC0
    1FC4823BEC237A 1FC475E696DEE6 1FC467D6817E82 1FC458059DC036 1FC4466D702E20
    1FC433070BCB98 1FC41DCB0D6E0E 1FC406B196BBF6 1FC3EDB248CB62 1FC3D2C43E593C
    1FC3B5DE0591B4 1FC396F599614C 1FC376005A4592 1FC352F3069370 1FC32DC1B22818
    1FC3065FBD7888 1FC2DCBFCBF262 1FC2B0D3B99F9E 1FC2828C8FFCF0 1FC251DA79F164
    1FC21EACB6D39E 1FC1E8F18C6756 1FC1B09637BB3C 1FC17586DCCD10 1FC137AE74D6B6
    1FC0F6F6BB2414 1FC0B348184DA4 1FC06C898BAFF0 1FC022A092F364 1FBFD5710F72B8
    1FBF84DD29488E 1FBF30C52FC60A 1FBED907770CC6 1FBE7D80327DDA 1FBE1E094BA614
    1FBDBA7A354408 1FBD52A7B9F826 1FBCE663C6201A 1FBC757D2C4DE4 1FBBFFBF63B7AA
    1FBB84F23FE6A2 1FBB04D9A0D18C 1FBA7F351A70AC 1FB9F3BF92B618 1FB9622ED4ABFC
    1FB8CA33174A16 1FB82B76765B54 1FB7859C5B895C 1FB6D840D55594 1FB622F7D96942
    1FB5654C6F37E0 1FB49EBFBF69D2 1FB3CEC803E746 1FB2F4CF539C3E 1FB21032442852
    1FB1203E5A9604 1FB0243042E1C2 1FAF1B31C479A6 1FAE045767E104 1FACDE9DBF2D72
    1FABA8E640060A 1FAA61F399FF28 1FA908656F66A2 1FA79AB3508D3C 1FA61726D1F214
    1FA47BD48BEA00 1FA2C693C5C094 1FA0F4F47DF314 1F9F04336BBE0A 1F9CF12B79F9BC
    1F9AB84415ABC4 1F98555B782FB8 1F95C3ABD03F78 1F92FDA9CEF1F2 1F8FFCDA9AE41C
    1F8CB99E7385F8 1F892AEC479606 1F8545F904DB8E 1F80FDC336039A 1F7C427839E926
    1F7700A3582ACC 1F71200F1A241C 1F6A8234B7352A 1F630000A8E266 1F5A66904FE3C4
    1F50724ECE1172 1F44C7665C6FDA 1F36E5A38A59A2 1F26143450340A 1F113E047B0414
    1EF6AEFA57CBE6 1ED38CA188151E 1EA2A61E122DB0 1E5961C78B267C 1DDDF62BAC0BB0
    1CDB4DD9E4E8C0
"""

_WE_TEXT = """
    9.655740063209183e-16 7.089014243955414e-18 1.1639412496691224e-17 1.524391512353216e-17
    1.833284885723744e-17 2.1089651094644866e-17 2.3611280778431382e-17 2.595595772310894e-17
    2.8161735541977523e-17 3.0255041303213823e-17 3.225508254836375e-17 3.417632340185027e-17
    3.6029969787344525e-17 3.782490776869649e-17 3.956832198097553e-17 4.1266117781759464e-17
    4.2923218084425256e-17 4.4543777432823714e-17 4.613133981483186e-17 4.768895725264636e-17
    4.921928043727963e-17 5.072462904503147e-17 5.220704702792672e-17 5.366834661718192e-17
    5.511014372835095e-17 5.653388673239667e-17 5.794088004852767e-17 5.933230365208943e-17
    6.07092293284718e-17 6.207263431163193e-17 6.342341280303077e-17 6.476238575956142e-17
    6.609030925769405e-17 6.740788167872722e-17 6.871574991183812e-17 7.00145147340393e-17
    7.130473549660643e-17 7.258693422414648e-17 7.386159921381792e-17 7.512918820723728e-17
    7.639013119550826e-17 7.764483290797848e-17 7.88936750272979e-17 8.013701816675454e-17
    8.137520364041762e-17 8.260855505210038e-17 8.383737972539139e-17 8.506196999385323e-17
    8.628260436784113e-17 8.749954859216183e-17 8.871305660690252e-17 8.992337142215357e-17
    9.113072591597909e-17 9.233534356381788e-17 9.353743910649129e-17 9.47372191631295e-17
    9.593488279457997e-17 9.713062202221521e-17 9.832462230649511e-17 9.951706298915072e-17
    1.0070811770242949e-16 1.0189795474846941e-16 1.030867374515422e-16 1.0427462448561886e-16
    1.0546177017945764e-16 1.0664832480119147e-16 1.0783443482419485e-16 1.0902024317583505e-16
    1.1020588947055781e-16 1.1139151022861975e-16 1.1257723908165675e-16 1.1376320696616847e-16
    1.1494954230590093e-16 1.1613637118402183e-16 1.1732381750590458e-16 1.1851200315326694e-16
    1.1970104813034652e-16 1.2089107070273855e-16 1.2208218752947062e-16 1.2327451378884152e-16
    1.2446816329851125e-16 1.2566324863028985e-16 1.2685988122003975e-16 1.2805817147307494e-16
    1.2925822886541196e-16 1.3046016204120288e-16 1.3166407890665726e-16 1.328700867207381e-16
    1.3407829218289994e-16 1.3528880151811755e-16 1.3650172055943978e-16 1.377171548282881e-16
    1.389352096127064e-16 1.4015599004375715e-16 1.4137960117024852e-16 1.4260614803196654e-16
    1.4383573573157902e-16 1.4506846950536877e-16 1.4630445479294757e-16 1.4754379730609516e-16
    1.487866030968626e-16 1.500329786250737e-16 1.5128303082535394e-16 1.5253686717381255e-16
    1.537945957544997e-16 1.5505632532575771e-16 1.5632216538658375e-16 1.5759222624311761e-16
    1.5886661907536842e-16 1.6014545600429167e-16 1.6142885015932787e-16 1.6271691574651305e-16
    1.640097681172718e-16 1.653075238380037e-16 1.666103007605742e-16 1.6791821809382289e-16
    1.6923139647620223e-16 1.7054995804966298e-16 1.7187402653490317e-16 1.7320372730810084e-16
    1.745391874792534e-16 1.7588053597224914e-16 1.7722790360680065e-16 1.7858142318237326e-16
    1.7994122956424637e-16 1.8130745977185016e-16 1.8268025306952523e-16 1.8405975105985878e-16
    1.8544609777975695e-16 1.8683943979941927e-16 1.882399263243892e-16 1.8964770930086167e-16
    1.9106294352443765e-16 1.9248578675252438e-16 1.9391639982058994e-16 1.9535494676249091e-16
    1.9680159493510374e-16 1.982565151475019e-16 1.997198817949342e-16 2.0119187299787347e-16
    2.0267267074641983e-16 2.0416246105035888e-16 2.0566143409519179e-16 2.071697844044737e-16
    2.0868771100881597e-16 2.1021541762192928e-16 2.117531128241076e-16 2.133010102535779e-16
    2.1485932880616633e-16 2.1642829284376047e-16 2.180081324120784e-16 2.1959908346828707e-16
    2.212013881190496e-16 2.2281529486961805e-16 2.2444105888463086e-16 2.2607894226131737e-16
    2.277292143158621e-16 2.2939215188373114e-16 2.3106803963482133e-16 2.3275717040435346e-16
    2.344598455404958e-16 2.361763752697774e-16 2.3790707908142767e-16 2.3965228613186235e-16
    2.4141233567062933e-16 2.431875774892256e-16 2.44978372394307e-16 2.4678509270692887e-16
    2.4860812278958517e-16 2.504478596029557e-16 2.523047132944217e-16 2.541791078205812e-16
    2.560714816061771e-16 2.579822882420531e-16 2.599119972249747e-16 2.618610947423924e-16
    2.638300845054943e-16 2.658194886341845e-16 2.678298485979525e-16 2.698617262169489e-16
    2.7191570472798185e-16 2.739923899205815e-16 2.760924113487617e-16 2.782164236246436e-16
    2.8036510780069835e-16 2.825391728480253e-16 2.847393572388174e-16 2.8696643064198177e-16
    2.8922119574179956e-16 2.915044901905293e-16 2.9381718870700286e-16 2.9616020533454657e-16
    2.9853449587300453e-16 3.009410605012618e-16 3.0338094660850034e-16 3.058552518544861e-16
    3.08365127481531e-16 3.1091178190342663e-16 3.134964845996663e-16 3.1612057034671057e-16
    3.187854438219713e-16 3.2149258462067974e-16 3.2424355273094516e-16 3.2703999451822404e-16
    3.298836492772283e-16 3.3277635641716714e-16 3.357200633553244e-16 3.387168342045505e-16
    3.417688593525637e-16 3.448784660453424e-16 3.4804813010374423e-16 3.5128048892229794e-16
    3.545783559224792e-16 3.5794473666042765e-16 3.6138284682190606e-16 3.6489613237645425e-16
    3.6848829220956213e-16 3.7216330360802073e-16 3.7592545104162565e-16 3.7977935876688744e-16
    3.8373002787892137e-16 3.8778287856078953e-16 3.919437984311429e-16 3.962191980786775e-16
    4.0061607510565417e-16 4.051420882956573e-16 4.0980564389030625e-16 4.1461599642909046e-16
    4.195833672073399e-16 4.247190841824385e-16 4.3003574816674707e-16 4.355474314693952e-16
    4.41269916903607e-16 4.472209874259932e-16 4.534207798565834e-16 4.598922204905932e-16
    4.666615664711476e-16 4.737590853262492e-16 4.812199172829238e-16 4.89085182739221e-16
    4.97403423619194e-16 5.06232507214416e-16 5.156421828878083e-16 5.257175802022275e-16
    5.365640977112022e-16 5.483144034258704e-16 5.61138745467516e-16 5.752606481503332e-16
    5.909817641652103e-16 6.087231416180908e-16 6.290979034877557e-16 6.530492053564041e-16
    6.821393079028929e-16 7.192444966089362e-16 7.706095350032097e-16 8.545517038584027e-16
"""

_FE_TEXT = """
    1.0 0.9381436808621747 0.9004699299257465 0.8717043323812036
    0.8477855006239896 0.8269932966430503 0.8084216515230084 0.7915276369724956
    0.7759568520401156 0.7614633888498963 0.7478686219851951 0.7350380924314235
    0.722867659593572 0.711274760805076 0.7001926550827882 0.689566496117078
    0.6793505722647654 0.6695063167319247 0.6600008410789997 0.6508058334145711
    0.6418967164272661 0.6332519942143661 0.624852738703666 0.6166821809152077
    0.608725382079622 0.6009689663652322 0.5934009016917334 0.586010318477268
    0.578787358602845 0.5717230486648258 0.5648091929124002 0.5580382822625874
    0.5514034165406413 0.5448982376724396 0.5385168720028619 0.5322538802630433
    0.5261042139836197 0.5200631773682336 0.5141263938147486 0.5082897764106429
    0.5025495018413477 0.49690198724154955 0.49134386959403253 0.4858719873418849
    0.4804833639304542 0.4751751930373774 0.46994482528396 0.4647897562504262
    0.4597076156421377 0.4546961574746155 0.449753251162755 0.4448768734145485
    0.4400651008423539 0.4353161032156366 0.43062813728845883 0.42599954114303434
    0.4214287289976166 0.4169141864330029 0.4124544659971612 0.4080481831520324
    0.4036940125305303 0.3993906844752311 0.39513698183329016 0.3909317369847971
    0.38677382908413765 0.38266218149600983 0.3785957594095808 0.37457356761590216
    0.370594648435146 0.36665807978151416 0.3627629733548178 0.3589084729487498
    0.35509375286678746 0.35131801643748334 0.347580494621637 0.3438804447045024
    0.34021714906678 0.3365899140286776 0.332998068761809 0.3294409642641363
    0.3259179723935562 0.32242848495608917 0.31897191284495724 0.31554768522712895
    0.31215524877417955 0.3087940669345602 0.30546361924459026 0.3021634006756935
    0.2988929210155818 0.2956517042812612 0.2924392881618926 0.28925522348967775
    0.2860990737370768 0.28297041453878075 0.2798688332369729 0.27679392844851736
    0.27374530965280297 0.27072259679906 0.2677254199320448 0.2647534188350622
    0.261806242689363 0.25888354974901623 0.2559850070304154 0.25311029001562946
    0.2502590823688623 0.24743107566532763 0.2446259691318921 0.24184346939887721
    0.23908329026244918 0.23634515245705964 0.23362878343743335 0.2309339171696274
    0.2282602939307167 0.22560766011668407 0.2229757680581202 0.2203643758433595
    0.21777324714870053 0.21520215107537868 0.21265086199297828 0.21011915938898826
    0.20760682772422204 0.2051136562938377 0.20263943909370902 0.20018397469191127
    0.19774706610509887 0.19532852067956322 0.19292814997677135 0.1905457696631954
    0.18818119940425432 0.1858342627621971 0.18350478709776746 0.1811926034754963
    0.1788975465724783 0.17661945459049488 0.1743581691713535 0.17211353531532006
    0.16988540130252766 0.1676736186172502 0.165478041874936 0.16329852875190182
    0.16113493991759203 0.1589871389693142 0.15685499236936523 0.15473836938446808
    0.15263714202744286 0.1505511850010399 0.1484803756438668 0.14642459387834494
    0.14438372216063478 0.1423576454324722 0.14034625107486245 0.1383494288635802
    0.13636707092642886 0.13439907170221363 0.13244532790138752 0.13050573846833077
    0.12858020454522817 0.12666862943751067 0.12477091858083096 0.12288697950954514
    0.12101672182667483 0.11916005717532768 0.11731689921155557 0.11548716357863353
    0.11367076788274431 0.1118676316700563 0.11007767640518538 0.1083008254510338
    0.10653700405000166 0.10478613930657017 0.10304816017125772 0.10132299742595363
    0.09961058367063713 0.0979108533114922 0.0962237425504328 0.09454918937605586
    0.09288713355604354 0.09123751663104016 0.08960028191003286 0.08797537446727022
    0.08636274114075691 0.08476233053236812 0.08317409300963238 0.08159798070923742
    0.0800339475423199 0.07848194920160642 0.0769419431704805 0.07541388873405841
    0.07389774699236475 0.07239348087570874 0.07090105516237183 0.06942043649872875
    0.0679515934219366 0.06649449638533977 0.06504911778675375 0.06361543199980733
    0.062193415408540995 0.06078304644547963 0.059384305633420266 0.05799717563120066
    0.05662164128374288 0.05525768967669704 0.05390531019604609 0.05256449459307169
    0.05123523705512628 0.04991753428270637 0.0486113855733795 0.04731679291318155
    0.04603376107617517 0.04476229773294328 0.04350241356888818 0.042254122413316234
    0.04101744138041482 0.039792391023374125 0.03857899550307486 0.03737728277295936
    0.03618728478193142 0.03500903769739741 0.03384258215087433 0.032687963508959535
    0.03154523217289361 0.030414443910466604 0.029295660224637393 0.028188948763978636
    0.0270943837809558 0.026012046645134217 0.024942026419731783 0.02388442051155817
    0.02283933540638524 0.02180688750428358 0.020787204072578117 0.019780424338009743
    0.01878670074469603 0.01780620041091136 0.016839106826039948 0.015885621839973163
    0.014945968011691148 0.014020391403181938 0.013109164931254991 0.012212592426255381
    0.011331013597834597 0.010464810181029979 0.00961441364250221 0.008780314985808975
    0.00796307743801704 0.007163353183634984 0.006381905937319179 0.005619642207205483
    0.004877655983542392 0.004157295120833795 0.003460264777836904 0.002788798793574076
    0.0021459677437189063 0.0015362997803015724 0.0009672692823271745 0.00045413435384149677
"""

#: ``ke_double``: a first try ``ri`` in layer ``k`` is accepted below
#: ``KE[k]`` (layer 1 never accepts on the first try).
KE = tuple(int(word, 16) for word in _KE_TEXT.split())

#: ``we_double``: layer ``k`` maps ``ri`` to ``x = ri * WE[k]``.
WE = tuple(float(value) for value in _WE_TEXT.split())

#: ``fe_double``: ``exp(-x)`` at the outer edge of each layer.
FE = tuple(float(value) for value in _FE_TEXT.split())


def decode_words(ke, we, words):
    """``(firsts, uniforms)``: a block of raw words decoded for the draws.

    ``words`` is a uint64 array and ``ke``/``we`` are float64 arrays of
    :data:`KE` and :data:`WE`.  Word ``j`` holds ``r = w >> 11`` and layer
    ``k = (w >> 3) & 255``; ``uniforms[j]`` is its ``next_double``
    ``r * 2**-53``, and ``firsts[j]`` its first try at a standard
    exponential: ``r * WE[k]`` when ``r < KE[k]`` accepts it, else
    ``-1.0 - k``.  ``firsts`` ends with :data:`END`, one slot past the last
    word, so that reading past the block takes the rare draws' branch.

    Bit for bit numpy's: ``r`` has 53 bits and every ``KE[k]`` is below
    ``2**53``, so both convert to float64 exactly; a float64 product is
    correctly rounded in numpy as in CPython, and ``2**-53`` only shifts the
    exponent.
    """
    r = (words >> 11).astype(np.float64)
    k = (words >> 3).astype(np.uint8)
    firsts = r * we.take(k)
    rejected = r >= ke.take(k)
    firsts[rejected] = -1.0 - k[rejected]
    firsts = firsts.tolist()
    firsts.append(END)
    r *= U53
    return firsts, r.tolist()


def exponential_rare(x, i, firsts, uniforms, raw, decode):
    """Finish a standard exponential draw whose first try was rejected.

    ``x = firsts[i - 1]`` is ``-1.0 - k``: the first try of word ``i - 1``,
    in layer ``k``, was rejected (see :func:`decode_words`), and words
    ``i, i + 1, ...`` are the stream's next ones.  Follows numpy's
    ``standard_exponential_unlikely``: layer 0 returns the tail
    ``R - log1p(-u)``; any other layer accepts ``x = r * WE[k]`` when
    ``(FE[k - 1] - FE[k]) * u + FE[k] < exp(-x)`` and otherwise draws
    afresh, first try included.  Each ``u`` is one word's ``next_double``.
    When the block runs out, ``decode(raw(n))`` appends words to ``firsts``
    and ``uniforms`` in place.  Returns ``(x, i)`` with ``i`` the index of
    the first unused word.
    """
    while True:
        k = int(-1.0 - x)
        r = uniforms[i - 1] * 9007199254740992.0  # the try's ``w >> 11``, exactly
        x = r * WE[k]
        if i == len(uniforms):
            _append_words(firsts, uniforms, raw, decode)
        u = uniforms[i]
        i += 1
        if k == 0:
            return R - math.log1p(-u), i
        if (FE[k - 1] - FE[k]) * u + FE[k] < math.exp(-x):
            return x, i
        if i == len(uniforms):
            _append_words(firsts, uniforms, raw, decode)
        x = firsts[i]
        i += 1
        if x >= 0.0:
            return x, i


def _append_words(firsts, uniforms, raw, decode):
    more_firsts, more_uniforms = decode(raw(_EXTRA_WORDS))
    firsts[-1:] = more_firsts  # in place of END, which ends more_firsts
    uniforms += more_uniforms


# ---------------------------------------------------------------------------
# Statements a generated function inlines
# ---------------------------------------------------------------------------

class WordBlock:
    """One run's read position in a PCG64 generator's stream of raw words.

    Holds the decoded block the draws read (``firsts``, ``uniforms``), its
    length ``n`` and the index ``i`` of its first unused word.  A function
    drawing from it copies these into locals (:data:`WORDS_LOAD`) and stores
    them back on every exit (:data:`WORDS_STORE`), so a block survives from
    one call to the next.  :meth:`close` steps the generator back over the
    words fetched but not drawn, leaving it where numpy's own calls would
    have; use the block as a context manager to close it however the run
    ends.
    """

    __slots__ = ("raw", "firsts", "uniforms", "n", "i", "_bits", "_half_word")

    def __init__(self, generator: np.random.Generator) -> None:
        self._bits = generator.bit_generator
        state = self._bits.state
        self._half_word = (state["has_uint32"], state["uinteger"])
        self.raw = self._bits.random_raw
        self.firsts: List[float] = [END]
        self.uniforms: List[float] = []
        self.n = self.i = 0

    def close(self) -> None:
        """Hand the generator back: ``advance`` steps it back over the
        ``n - i`` undrawn words (PCG64 advances modulo its period) and
        clears a buffered uint32 half-word, which is put back."""
        if self.i != self.n:
            self._bits.advance(self.i - self.n)
            self.n = self.i
            if self._half_word[0]:
                state = self._bits.state
                state["has_uint32"], state["uinteger"] = self._half_word
                self._bits.state = state

    def __enter__(self) -> "WordBlock":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


#: Copies a :class:`WordBlock` argument ``words`` into the locals the draws
#: read: ``_zx`` and ``_zu`` are the decoded block, ``_zu[_i:]`` its unused
#: words and ``_n`` its length.
WORDS_LOAD = [
    "_raw = words.raw",
    "_zx = words.firsts",
    "_zu = words.uniforms",
    "_n = words.n",
    "_i = words.i",
]

#: Stores the draws' locals back into ``words`` (in a ``finally``).
WORDS_STORE = [
    "words.firsts = _zx",
    "words.uniforms = _zu",
    "words.n = _n",
    "words.i = _i",
]


def _next_block(size: str) -> List[str]:
    """Fetches and decodes the next block, ``size`` words; the draw sets ``_i``."""
    return [
        f"_n = {size}",
        "_zx, _zu = _decode(_raw(_n))",
    ]


def block_for(draws: str) -> str:
    """An expression sizing a block for an expected count of draws.

    ``draws`` is a float expression; the block holds it plus
    :data:`BLOCK_PAD` words, and at most :data:`BLOCK_CAP` (an infinite or
    NaN count gets the cap).
    """
    return f"(int(min(_BLOCK_CAP - _BLOCK_PAD, {draws})) + _BLOCK_PAD)"


def draw_exponential(target: str, scale: str, block: str) -> List[str]:
    """Statements for ``target = generator.exponential(scale)``.

    One test covers both rare cases: a rejected first try and the
    :data:`END` slot past the block, which fetches the next block first
    (``block`` words, an expression from :func:`block_for`).
    """
    return [
        "_x = _zx[_i]",
        "_i += 1",
        "if _x < 0.0:",
        "    if _i > _n:",
        *(f"        {line}" for line in _next_block(block)),
        "        _x = _zx[0]",
        "        _i = 1",
        "    if _x < 0.0:",
        "        _x, _i = _exp_rare(_x, _i, _zx, _zu, _raw, _decode)",
        "        _n = len(_zu)",
        f"{target} = _x * {scale}",
    ]


def draw_uniform(target: str, factor: Optional[str], block: str) -> List[str]:
    """Statements for ``target = generator.random() * factor``; a refill
    fetches ``block`` words."""
    times = f" * {factor}" if factor else ""
    return [
        "if _i == _n:",
        *(f"    {line}" for line in _next_block(block)),
        "    _i = 0",
        f"{target} = _zu[_i]{times}",
        "_i += 1",
    ]


def statement_namespace() -> Dict[str, object]:
    """The module-level names the statements read, for a generated module.

    Built from this module's tables and block sizes as they are when called.
    """
    decode = functools.partial(
        decode_words, np.array(KE, dtype=np.float64), np.array(WE, dtype=np.float64)
    )
    return {
        "_decode": decode,
        "_exp_rare": exponential_rare,
        "_BLOCK_CAP": BLOCK_CAP,
        "_BLOCK_PAD": BLOCK_PAD,
    }


def load_draw_pairs():
    """``draw_pairs(words, scales)``, built from the kernels' statements.

    Returns the list ``[exponential(scales[0]), random(), exponential(scales[1]),
    random(), ...]`` that the same calls on the generator of ``words`` (a
    :class:`WordBlock`) would return, drawn by the statements the kernels
    inline.  Like a kernel's ``ssa_segment`` it leaves its place in
    ``words``, so several calls draw on where the last one stopped, and
    closing ``words`` hands the generator back.  It exists to check those
    statements against numpy; the generator must be PCG64-backed.
    """
    body = ["_out = []", *WORDS_LOAD, "try:", "    for _scale in scales:"]
    # Sized like the kernels' blocks: two words for each pair of the call.
    block = block_for("2.0 * len(scales)")
    draws = [
        *draw_exponential("_e", "_scale", block),
        *draw_uniform("_u", None, block),
        "_out += (_e, _u)",
    ]
    body.extend(f"        {line}" for line in draws)
    body.append("finally:")
    body.extend(f"    {line}" for line in WORDS_STORE)
    body.append("return _out")
    source = "\n".join(["def draw_pairs(words, scales):", *(f"    {line}" for line in body)])
    namespace = statement_namespace()
    exec(compile(source, "<repro-draw-pairs>", "exec"), namespace)  # noqa: S102
    return namespace["draw_pairs"]


@functools.lru_cache(maxsize=None)
def block_draws_verified() -> bool:
    """Whether the kernels' rebuilt draws equal numpy's, checked once per process.

    Draws :data:`CHECK_PAIRS` interleaved exponential/uniform pairs, with
    scales spanning twelve decades, through :func:`load_draw_pairs` and
    through ``Generator.exponential``/``Generator.random`` on twin PCG64
    generators that each hold a buffered uint32 half-word.  The pairs go in
    ten calls: after each, the draws must be equal and the two generators in
    the same state.  False means a numpy whose ziggurat or PCG64 differs from
    the one the tables came from; the simulators then keep numpy's own
    calls, and a ``RuntimeWarning`` says so.  Costs a few milliseconds.
    """
    draw_pairs = load_draw_pairs()
    ours, theirs = (np.random.Generator(np.random.PCG64(CHECK_SEED)) for _ in range(2))
    ours.integers(0, 4)
    theirs.integers(0, 4)
    for scales in np.geomspace(1e-6, 1e6, CHECK_PAIRS).reshape(10, -1).tolist():
        expected = []
        for scale in scales:
            expected += (theirs.exponential(scale), theirs.random())
        reason = ""
        try:
            with WordBlock(ours) as words:
                matched = draw_pairs(words, scales) == expected
        except Exception as error:  # noqa: BLE001 - any failure rules the block path out
            matched, reason = False, f" ({type(error).__name__}: {error})"
        if not (matched and ours.bit_generator.state == theirs.bit_generator.state):
            warnings.warn(
                f"PCG64 draws rebuilt from raw words do not match numpy {np.__version__}"
                f"{reason}; the direct-method SSA falls back to numpy's per-event draws "
                "(slower)",
                RuntimeWarning,
                stacklevel=2,
            )
            return False
    return True
