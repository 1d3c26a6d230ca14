import meanforce


def test_every_public_name_resolves():
    for name in meanforce.__all__:
        getattr(meanforce, name)
